//! Wire responses: one JSON object per line, written by the
//! workspace's one JSON codec ([`polar_molecule::json`]).
//!
//! Every request — well-formed or not — gets exactly one response line
//! with a `"status"` discriminant, so clients never have to guess why a
//! line went unanswered:
//!
//! | status               | extra fields                                |
//! |----------------------|---------------------------------------------|
//! | `ok`                 | `id`, `epol_kcal`, `cache_hit`, `wall_ms`   |
//! | `shed`               | `id`, `retry_after_ms`, `error`             |
//! | `bad_request`        | `error` (byte offset / offending key)       |
//! | `deadline_exceeded`  | `id`, `phase`, `error`                      |
//! | `panicked`           | `id`, `error`                               |
//! | `error`              | `id`, `error` (typed solve/load failure)    |
//! | `drained`            | `report` (the final [`ServeReport`] JSON)   |

use polar_gb::ServeReport;
use polar_molecule::json::JsonWriter;

/// `{"id":…,"status":…` (the id only for responses to a parsed job),
/// then whatever `rest` appends, then `}`.
fn response(id: Option<&str>, status: &str, rest: impl FnOnce(&mut JsonWriter)) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    if let Some(id) = id {
        w.key("id").str(id);
    }
    w.key("status").str(status);
    rest(&mut w);
    w.end_object();
    w.finish()
}

pub(crate) fn ok(id: &str, epol_kcal: f64, cache_hit: bool, patched: bool, wall_ms: f64) -> String {
    response(Some(id), "ok", |w| {
        w.key("epol_kcal").f64(epol_kcal);
        w.key("cache_hit").bool(cache_hit);
        w.key("patched").bool(patched);
        w.key("wall_ms").f64(wall_ms);
    })
}

pub(crate) fn shed(id: &str, retry_after_ms: u64, reason: &str) -> String {
    response(Some(id), "shed", |w| {
        w.key("retry_after_ms").u64(retry_after_ms);
        w.key("error").str(reason);
    })
}

pub(crate) fn bad_request(error: &str) -> String {
    response(None, "bad_request", |w| {
        w.key("error").str(error);
    })
}

pub(crate) fn deadline_exceeded(id: &str, phase: &str, error: &str) -> String {
    response(Some(id), "deadline_exceeded", |w| {
        w.key("phase").str(phase);
        w.key("error").str(error);
    })
}

pub(crate) fn panicked(id: &str, error: &str) -> String {
    response(Some(id), "panicked", |w| {
        w.key("error").str(error);
    })
}

pub(crate) fn error(id: &str, error: &str) -> String {
    response(Some(id), "error", |w| {
        w.key("error").str(error);
    })
}

pub(crate) fn health(draining: bool) -> String {
    response(None, "ok", |w| {
        w.key("healthy").bool(true);
        w.key("draining").bool(draining);
    })
}

pub(crate) fn stats(report: &ServeReport) -> String {
    response(None, "ok", |w| {
        w.key("report").raw(&report.to_json());
    })
}

pub(crate) fn drained(report: &ServeReport) -> String {
    response(None, "drained", |w| {
        w.key("report").raw(&report.to_json());
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Full lines, byte for byte as the `format!`-built responses this
    /// module emitted before it moved onto the shared writer.
    #[test]
    fn responses_escape_and_discriminate() {
        assert_eq!(
            ok("r\"1", -12.5, true, false, 3.25),
            r#"{"id":"r\"1","status":"ok","epol_kcal":-12.5,"cache_hit":true,"patched":false,"wall_ms":3.25}"#
        );
        assert_eq!(
            ok("nanjob", f64::NAN, false, true, 0.0),
            r#"{"id":"nanjob","status":"ok","epol_kcal":null,"cache_hit":false,"patched":true,"wall_ms":0}"#,
            "never a NaN token"
        );
        assert_eq!(
            shed("x", 40, "queue full"),
            r#"{"id":"x","status":"shed","retry_after_ms":40,"error":"queue full"}"#
        );
        assert_eq!(
            bad_request("byte 7: trailing\ngarbage \u{1}"),
            r#"{"status":"bad_request","error":"byte 7: trailing\ngarbage \u0001"}"#
        );
        assert_eq!(
            deadline_exceeded("x", "plan", "e"),
            r#"{"id":"x","status":"deadline_exceeded","phase":"plan","error":"e"}"#
        );
        assert_eq!(
            panicked("x", "boom"),
            r#"{"id":"x","status":"panicked","error":"boom"}"#
        );
        assert_eq!(
            error("café", "bad\t\\"),
            r#"{"id":"café","status":"error","error":"bad\t\\"}"#
        );
        assert_eq!(
            health(false),
            r#"{"status":"ok","healthy":true,"draining":false}"#
        );
        let rep = ServeReport::default();
        assert_eq!(
            stats(&rep),
            format!(r#"{{"status":"ok","report":{}}}"#, rep.to_json())
        );
        assert_eq!(
            drained(&rep),
            format!(r#"{{"status":"drained","report":{}}}"#, rep.to_json())
        );
        assert!(rep.to_json().starts_with("{\"schema\":\"serve_report/v1\""));
    }
}
