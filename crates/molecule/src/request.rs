//! Serve-mode request framing: one line-delimited JSON object per
//! rescoring request, reusing the manifest job reader.
//!
//! The wire format of `polar serve` is the manifest job schema
//! ([`crate::manifest`]) plus four serve-only keys:
//!
//! ```json
//! { "id": "r17", "tenant": "acme", "deadline_ms": 250,
//!   "generate": "globular", "n_atoms": 240, "seed": 7,
//!   "eps_born": 0.6, "eps_epol": 0.6 }
//! ```
//!
//! * `id` — echoed on the response so clients can pipeline requests
//!   (defaults to the job's derived name);
//! * `tenant` — cache-quota accounting bucket (defaults to `"default"`);
//! * `deadline_ms` — per-request deadline, enforced cooperatively at
//!   plan/execute phase boundaries;
//! * `panic` — chaos switch: the worker deliberately panics inside the
//!   solve, exercising the server's fault isolation.
//!
//! Control frames are `{"cmd": "health" | "stats" | "drain"}`. A request
//! carrying `repeat` is rejected: serve requests are single jobs, the
//! batch manifest is where fan-out lives.

use crate::io::ParseError;
use crate::json::Json;
use crate::manifest::{self, ManifestJob};

/// One parsed line of the serve wire protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeRequest {
    /// A rescoring job.
    Job(Box<ServeJob>),
    /// A server control frame.
    Control(Control),
}

/// Server control commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Liveness probe; answered immediately, never queued.
    Health,
    /// Snapshot of the running `ServeReport`.
    Stats,
    /// Begin graceful drain: stop admitting, finish in-flight work,
    /// answer with the final report.
    Drain,
}

/// A framed rescoring request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeJob {
    /// Response correlation id (defaults to the job name).
    pub id: String,
    /// Cache-quota bucket.
    pub tenant: String,
    /// The molecule + parameters, shared with the batch manifest format.
    pub job: ManifestJob,
    /// Deadline budget in milliseconds, if the client set one.
    pub deadline_ms: Option<u64>,
    /// Chaos switch: panic inside the worker instead of solving.
    pub panic: bool,
}

/// Parse one request line. Errors carry the offending key or byte
/// offset, exactly like manifest errors — they become `bad_request`
/// responses, never dropped connections. The line goes through
/// [`crate::json`]: `\uXXXX` escapes (what Python's `json.dumps` writes
/// for non-ASCII ids) are accepted; a duplicate key, nesting past
/// [`crate::json::MAX_DEPTH`] and out-of-range integers are errors.
pub fn parse_request(line: &str) -> Result<ServeRequest, ParseError> {
    let v = Json::parse(line)?;
    let obj = v.as_object("request")?;
    if let Some(cmd) = obj.get("cmd") {
        if let Some(extra) = obj.keys().find(|k| k.as_str() != "cmd") {
            return Err(ParseError::Invalid(format!(
                "request: control frames take only \"cmd\", got {extra:?}"
            )));
        }
        let ctl = match cmd.as_str("request.cmd")? {
            "health" => Control::Health,
            "stats" => Control::Stats,
            "drain" => Control::Drain,
            other => {
                return Err(ParseError::Invalid(format!(
                    "request.cmd: unknown command {other:?} (expected health, stats or drain)"
                )))
            }
        };
        return Ok(ServeRequest::Control(ctl));
    }
    if obj.contains_key("repeat") {
        return Err(ParseError::Invalid(
            "request: \"repeat\" is a batch-manifest field; serve requests are single jobs".into(),
        ));
    }
    let tenant = match obj.get("tenant") {
        Some(t) => {
            let t = t.as_str("request.tenant")?;
            if t.is_empty() {
                return Err(ParseError::Invalid(
                    "request.tenant: must be non-empty".into(),
                ));
            }
            t.to_string()
        }
        None => "default".to_string(),
    };
    let deadline_ms = match obj.get("deadline_ms") {
        Some(d) => Some(d.as_u64("request.deadline_ms")?),
        None => None,
    };
    let panic = match obj.get("panic") {
        Some(p) => p.as_bool("request.panic")?,
        None => false,
    };
    // Everything else is the manifest job schema.
    let job =
        manifest::parse_job_with_ctx(&v, "request", &["id", "tenant", "deadline_ms", "panic"])?;
    let id = match obj.get("id") {
        Some(t) => t.as_str("request.id")?.to_string(),
        None => job.name.clone(),
    };
    Ok(ServeRequest::Job(Box::new(ServeJob {
        id,
        tenant,
        job,
        deadline_ms,
        panic,
    })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::JobSource;

    #[test]
    fn full_request_parses_with_serve_fields() {
        let r = parse_request(
            r#"{"id":"r17","tenant":"acme","deadline_ms":250,"panic":false,
                "generate":"globular","n_atoms":240,"seed":7,"eps_born":0.6}"#,
        )
        .expect("valid request");
        match r {
            ServeRequest::Job(j) => {
                assert_eq!(j.id, "r17");
                assert_eq!(j.tenant, "acme");
                assert_eq!(j.deadline_ms, Some(250));
                assert!(!j.panic);
                assert_eq!(j.job.eps_born, 0.6);
                assert_eq!(
                    j.job.source,
                    JobSource::Generate {
                        kind: "globular".into(),
                        n_atoms: 240,
                        seed: 7
                    }
                );
            }
            other => panic!("expected a job, got {other:?}"),
        }
    }

    #[test]
    fn defaults_fill_id_tenant_and_deadline() {
        let r = parse_request(r#"{"generate":"ligand","n_atoms":60}"#).unwrap();
        match r {
            ServeRequest::Job(j) => {
                assert_eq!(j.id, "ligand_n60_s0", "id defaults to the derived name");
                assert_eq!(j.tenant, "default");
                assert_eq!(j.deadline_ms, None);
                assert!(!j.panic);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn control_frames_parse_and_reject_extra_keys() {
        assert_eq!(
            parse_request(r#"{"cmd":"health"}"#).unwrap(),
            ServeRequest::Control(Control::Health)
        );
        assert_eq!(
            parse_request(r#"{"cmd":"stats"}"#).unwrap(),
            ServeRequest::Control(Control::Stats)
        );
        assert_eq!(
            parse_request(r#"{"cmd":"drain"}"#).unwrap(),
            ServeRequest::Control(Control::Drain)
        );
        let err = parse_request(r#"{"cmd":"drain","id":"x"}"#).unwrap_err();
        assert!(err.to_string().contains("only \"cmd\""), "{err}");
        let err = parse_request(r#"{"cmd":"reboot"}"#).unwrap_err();
        assert!(err.to_string().contains("reboot"), "{err}");
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        let cases: &[(&str, &str)] = &[
            ("{", "byte"),
            (r#"[1,2]"#, "object"),
            (r#"{"n_atoms":5}"#, "generate"),
            (
                r#"{"generate":"globular","n_atoms":5,"repeat":2}"#,
                "repeat",
            ),
            (
                r#"{"generate":"globular","n_atoms":5,"tenant":""}"#,
                "tenant",
            ),
            (
                r#"{"generate":"globular","n_atoms":5,"deadline_ms":-1}"#,
                "deadline_ms",
            ),
            (
                r#"{"generate":"globular","n_atoms":5,"panic":1}"#,
                "boolean",
            ),
            (
                r#"{"generate":"globular","n_atoms":5,"typo":1}"#,
                "unknown key",
            ),
        ];
        for (text, needle) in cases {
            let err = parse_request(text).expect_err(text).to_string();
            assert!(err.contains(needle), "{text} -> {err}");
        }
    }

    #[test]
    fn request_errors_name_the_request_context() {
        let err = parse_request(r#"{"generate":"globular","n_atoms":5,"eps_born":-2}"#)
            .unwrap_err()
            .to_string();
        assert!(err.contains("request.eps_born"), "{err}");
    }
}
