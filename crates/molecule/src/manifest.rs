//! Batch-job manifests: the input format of the batch rescoring engine.
//!
//! A manifest is a JSON file listing jobs, each naming a molecule source
//! (a seeded synthetic generator or a structure file on disk) plus the
//! approximation parameters to solve it with:
//!
//! ```json
//! {
//!   "jobs": [
//!     { "name": "lig_a", "generate": "globular", "n_atoms": 240,
//!       "seed": 7, "eps_born": 0.4, "eps_epol": 0.4, "repeat": 4 },
//!     { "file": "complex.pqr", "eps_born": 0.9 }
//!   ]
//! }
//! ```
//!
//! `repeat` expands one entry into that many identical jobs — the
//! docking re-scoring shape, where the same conformation is scored
//! under many poses and the plan cache should hit. Omitted fields fall
//! back to defaults (`eps_* = 0.9`, `repeat = 1`, `seed = 0`).
//!
//! The text is read by the workspace's one JSON codec ([`crate::json`]:
//! `\uXXXX` escapes accepted, duplicate keys and nesting past
//! [`crate::json::MAX_DEPTH`] rejected); malformed input surfaces as
//! [`ParseError::Invalid`] with the offending key and byte offset.

use crate::generators;
use crate::io::{self, ParseError};
use crate::json::{Json, JsonError};
use crate::molecule::Molecule;
use std::path::{Path, PathBuf};

/// Where a job's molecule comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSource {
    /// Seeded synthetic generator: `globular`, `virus_shell` or `ligand`.
    Generate {
        kind: String,
        n_atoms: usize,
        seed: u64,
    },
    /// A PQR/XYZ/PDB file, resolved relative to the manifest.
    File(PathBuf),
}

/// A trajectory attached to a manifest job: replay the molecule over
/// `count` frames of bounded per-atom jitter (see
/// [`crate::trajectory::jitter_frames`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameSpec {
    /// Frames to replay, including the unperturbed frame 0.
    pub count: usize,
    /// Per-atom displacement bound per frame (Å).
    pub max_step: f64,
    /// Seed of the frame random walk (independent of the generator seed).
    pub seed: u64,
}

impl Default for FrameSpec {
    fn default() -> FrameSpec {
        FrameSpec {
            count: 8,
            // Comfortably inside the default 0.1 Å drift tolerance of the
            // re-planning path, so most warm frames patch instead of
            // rebuilding (drift accumulates ~one recompute per 5 frames).
            max_step: 0.02,
            seed: 0,
        }
    }
}

/// One manifest entry, already expanded of its defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestJob {
    /// Display name (defaults to the generator spec or file stem).
    pub name: String,
    pub source: JobSource,
    pub eps_born: f64,
    pub eps_epol: f64,
    /// How many identical copies of this job to enqueue.
    pub repeat: usize,
    /// Optional trajectory: replay the molecule over jittered frames
    /// (`polar trajectory` consumes this; `polar batch` ignores it).
    pub frames: Option<FrameSpec>,
}

impl ManifestJob {
    /// Materialize the molecule (generating or reading the file).
    /// `base_dir` anchors relative file paths — pass the manifest's
    /// parent directory.
    pub fn build_molecule(&self, base_dir: &Path) -> Result<Molecule, ParseError> {
        match &self.source {
            JobSource::Generate {
                kind,
                n_atoms,
                seed,
            } => match kind.as_str() {
                "globular" => Ok(generators::globular(self.name.clone(), *n_atoms, *seed)),
                "virus_shell" => Ok(generators::virus_shell(
                    self.name.clone(),
                    *n_atoms,
                    25.0,
                    *seed,
                )),
                "ligand" => Ok(generators::ligand(self.name.clone(), *n_atoms, *seed)),
                other => Err(ParseError::Invalid(format!(
                    "job {:?}: unknown generator {other:?} (expected globular, virus_shell or ligand)",
                    self.name
                ))),
            },
            JobSource::File(p) => {
                let path = if p.is_absolute() {
                    p.clone()
                } else {
                    base_dir.join(p)
                };
                io::load(&path)
            }
        }
    }
}

/// A parsed batch manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    pub jobs: Vec<ManifestJob>,
}

impl Manifest {
    /// Total jobs after `repeat` expansion.
    pub fn expanded_len(&self) -> usize {
        self.jobs.iter().map(|j| j.repeat).sum()
    }
}

/// Read and parse a manifest file.
pub fn load_manifest(path: &Path) -> Result<Manifest, ParseError> {
    let text = std::fs::read_to_string(path).map_err(|e| ParseError::Io(e.to_string()))?;
    parse_manifest(&text)
}

/// Parse manifest JSON text.
pub fn parse_manifest(text: &str) -> Result<Manifest, ParseError> {
    let value = Json::parse(text)?;
    let root = value.as_object("manifest root")?;
    let jobs_v = root
        .get("jobs")
        .ok_or_else(|| ParseError::Invalid("manifest has no \"jobs\" array".into()))?;
    let entries = jobs_v.as_array("\"jobs\"")?;
    if entries.is_empty() {
        return Err(ParseError::Invalid("\"jobs\" is empty".into()));
    }
    let mut jobs: Vec<ManifestJob> = Vec::with_capacity(entries.len());
    let mut seen: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    for (i, e) in entries.iter().enumerate() {
        let job = parse_job_with_ctx(e, &format!("jobs[{i}]"), &[])?;
        // Names become request ids downstream (serve mode), so two
        // entries resolving to the same name would be indistinguishable
        // in reports and responses. `repeat` copies are intentional
        // duplicates of *one* entry and stay allowed.
        if let Some(&first) = seen.get(&job.name) {
            return Err(match e.get("name") {
                Some(name) => name
                    .error(format!(
                        "jobs[{i}].name {:?} duplicates jobs[{first}]",
                        job.name
                    ))
                    .into(),
                None => ParseError::Invalid(format!(
                    "jobs[{i}]: derived name {:?} duplicates jobs[{first}]; \
                     add explicit distinct \"name\" fields",
                    job.name
                )),
            });
        }
        seen.insert(job.name.clone(), i);
        jobs.push(job);
    }
    Ok(Manifest { jobs })
}

/// Manifest and wire errors read `manifest JSON, byte N: …`.
impl From<JsonError> for ParseError {
    fn from(e: JsonError) -> ParseError {
        ParseError::Invalid(format!("manifest JSON, {e}"))
    }
}

/// Parse one job object. `ctx` labels errors (`jobs[3]` for manifests,
/// `request` for the serve wire format, which reuses this reader and
/// names its own keys in `extra_keys` so they are not reported unknown).
pub(crate) fn parse_job_with_ctx(
    v: &Json,
    ctx: &str,
    extra_keys: &[&str],
) -> Result<ManifestJob, ParseError> {
    let ctx = || ctx.to_string();
    let obj = v.as_object(&ctx())?;
    for key in obj.keys() {
        match key.as_str() {
            "name" | "generate" | "n_atoms" | "seed" | "file" | "eps_born" | "eps_epol"
            | "repeat" | "frames" => {}
            other if extra_keys.contains(&other) => {}
            other => {
                return Err(ParseError::Invalid(format!(
                    "{}: unknown key {other:?}",
                    ctx()
                )))
            }
        }
    }
    let source = match (obj.get("generate"), obj.get("file")) {
        (Some(_), Some(_)) => {
            return Err(ParseError::Invalid(format!(
                "{}: both \"generate\" and \"file\" given",
                ctx()
            )))
        }
        (Some(g), None) => {
            let kind = g.as_str(&format!("{}.generate", ctx()))?.to_string();
            let n_atoms = match obj.get("n_atoms") {
                Some(n) => n.as_u32(&format!("{}.n_atoms", ctx()))? as usize,
                None => {
                    return Err(ParseError::Invalid(format!(
                        "{}: \"generate\" requires \"n_atoms\"",
                        ctx()
                    )))
                }
            };
            let seed = match obj.get("seed") {
                Some(s) => s.as_u64(&format!("{}.seed", ctx()))?,
                None => 0,
            };
            JobSource::Generate {
                kind,
                n_atoms,
                seed,
            }
        }
        (None, Some(f)) => JobSource::File(PathBuf::from(f.as_str(&format!("{}.file", ctx()))?)),
        (None, None) => {
            return Err(ParseError::Invalid(format!(
                "{}: needs \"generate\" or \"file\"",
                ctx()
            )))
        }
    };
    let name = match obj.get("name") {
        Some(n) => n.as_str(&format!("{}.name", ctx()))?.to_string(),
        None => match &source {
            JobSource::Generate {
                kind,
                n_atoms,
                seed,
            } => format!("{kind}_n{n_atoms}_s{seed}"),
            JobSource::File(p) => p
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(&ctx),
        },
    };
    let eps_born = match obj.get("eps_born") {
        Some(x) => x.as_f64(&format!("{}.eps_born", ctx()))?,
        None => 0.9,
    };
    let eps_epol = match obj.get("eps_epol") {
        Some(x) => x.as_f64(&format!("{}.eps_epol", ctx()))?,
        None => 0.9,
    };
    for (key, eps) in [("eps_born", eps_born), ("eps_epol", eps_epol)] {
        check_eps(&format!("{}.{key}", ctx()), eps).map_err(ParseError::Invalid)?;
    }
    let repeat = match obj.get("repeat") {
        Some(r) => {
            let val = r.as_u32(&format!("{}.repeat", ctx()))? as usize;
            if val == 0 {
                // Point at the offending token: a zero repeat silently
                // expands to no jobs, so it must fail loudly and precisely.
                return Err(r
                    .error(format!("{}.repeat must be at least 1, got 0", ctx()))
                    .into());
            }
            val
        }
        None => 1,
    };
    let frames = match obj.get("frames") {
        Some(f) => Some(parse_frame_spec(f, &format!("{}.frames", ctx()))?),
        None => None,
    };
    Ok(ManifestJob {
        name,
        source,
        eps_born,
        eps_epol,
        repeat,
        frames,
    })
}

/// The one rule for an approximation parameter ε, wherever it enters —
/// a manifest job, a request line, a `--eps-*` option: a finite positive
/// number. The separation tests divide by it and assert that it is
/// positive, so anything else has to stop at the door. `what` names the
/// input in the message. Step lengths and scales that must be positive
/// (`--step`, `--alpha-scale`, `--omega`) are held to the same rule.
pub fn check_eps(what: &str, eps: f64) -> Result<f64, String> {
    if eps.is_finite() && eps > 0.0 {
        Ok(eps)
    } else {
        Err(format!(
            "{what}: must be a finite positive number, got {eps}"
        ))
    }
}

/// The rule for a distance bound that may be zero — a frame's
/// `max_step`, a drift `tolerance`: a finite non-negative number.
/// `what` names the input in the message.
pub fn check_non_negative(what: &str, x: f64) -> Result<f64, String> {
    if x.is_finite() && x >= 0.0 {
        Ok(x)
    } else {
        Err(format!(
            "{what}: must be a finite non-negative number, got {x}"
        ))
    }
}

/// A size option given in MiB (`--cache-mb`, `--quota-mb`) as a byte
/// count. `mb << 20` would drop the high bits of an oversized value
/// silently and leave a near-zero cache that evicts on every insert.
pub fn mib_to_bytes(what: &str, mb: usize) -> Result<usize, String> {
    mb.checked_mul(1 << 20)
        .ok_or_else(|| format!("{what}: {mb} MB does not fit in this platform's address space"))
}

/// Parse a `frames` object: `{ "count": 16, "max_step": 0.05, "seed": 3 }`.
/// All keys are optional and fall back to [`FrameSpec::default`].
fn parse_frame_spec(v: &Json, ctx: &str) -> Result<FrameSpec, ParseError> {
    let obj = v.as_object(ctx)?;
    for key in obj.keys() {
        match key.as_str() {
            "count" | "max_step" | "seed" => {}
            other => return Err(ParseError::Invalid(format!("{ctx}: unknown key {other:?}"))),
        }
    }
    let mut spec = FrameSpec::default();
    if let Some(c) = obj.get("count") {
        spec.count = c.as_u32(&format!("{ctx}.count"))? as usize;
        if spec.count == 0 {
            return Err(c
                .error(format!("{ctx}.count must be at least 1, got 0"))
                .into());
        }
    }
    if let Some(s) = obj.get("max_step") {
        let what = format!("{ctx}.max_step");
        spec.max_step = check_non_negative(&what, s.as_f64(&what)?).map_err(ParseError::Invalid)?;
    }
    if let Some(s) = obj.get("seed") {
        spec.seed = s.as_u64(&format!("{ctx}.seed"))?;
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_manifest_round_trips() {
        let text = r#"{
            "jobs": [
                { "name": "lig_a", "generate": "globular", "n_atoms": 240,
                  "seed": 7, "eps_born": 0.4, "eps_epol": 0.5, "repeat": 4 },
                { "generate": "ligand", "n_atoms": 60 },
                { "file": "structures/complex.pqr", "eps_born": 0.9 }
            ]
        }"#;
        let m = parse_manifest(text).expect("valid manifest");
        assert_eq!(m.jobs.len(), 3);
        assert_eq!(m.expanded_len(), 6);
        assert_eq!(m.jobs[0].name, "lig_a");
        assert_eq!(m.jobs[0].eps_born, 0.4);
        assert_eq!(m.jobs[0].repeat, 4);
        assert_eq!(m.jobs[1].name, "ligand_n60_s0");
        assert_eq!(m.jobs[1].eps_born, 0.9, "default epsilon");
        assert_eq!(m.jobs[2].name, "complex");
        assert_eq!(
            m.jobs[2].source,
            JobSource::File(PathBuf::from("structures/complex.pqr"))
        );
    }

    #[test]
    fn generated_jobs_build_deterministic_molecules() {
        let job = ManifestJob {
            name: "g".into(),
            source: JobSource::Generate {
                kind: "globular".into(),
                n_atoms: 80,
                seed: 3,
            },
            eps_born: 0.9,
            eps_epol: 0.9,
            repeat: 1,
            frames: None,
        };
        let a = job.build_molecule(Path::new(".")).unwrap();
        let b = job.build_molecule(Path::new(".")).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 80);
    }

    #[test]
    fn malformed_manifests_are_rejected_with_readable_errors() {
        let cases: &[(&str, &str)] = &[
            ("{}", "jobs"),
            (r#"{"jobs": []}"#, "empty"),
            (r#"{"jobs": [{"n_atoms": 5}]}"#, "generate"),
            (r#"{"jobs": [{"generate": "globular"}]}"#, "n_atoms"),
            (
                r#"{"jobs": [{"generate": "globular", "n_atoms": 5, "file": "x"}]}"#,
                "both",
            ),
            (
                r#"{"jobs": [{"generate": "globular", "n_atoms": 5, "repeat": 0}]}"#,
                "repeat",
            ),
            (
                r#"{"jobs": [{"generate": "globular", "n_atoms": 5, "eps_born": -1}]}"#,
                "eps_born",
            ),
            (
                r#"{"jobs": [{"generate": "globular", "n_atoms": 5, "typo": 1}]}"#,
                "unknown key",
            ),
            (r#"{"jobs": [{"generate": 7, "n_atoms": 5}]}"#, "string"),
            (r#"{"jobs"#, "byte"),
        ];
        for (text, needle) in cases {
            let err = parse_manifest(text).expect_err(text).to_string();
            assert!(err.contains(needle), "{text} -> {err}");
        }
    }

    #[test]
    fn zero_repeat_error_points_at_the_offending_byte() {
        let text = r#"{"jobs": [{"generate": "globular", "n_atoms": 5, "repeat": 0}]}"#;
        let err = parse_manifest(text).expect_err("repeat 0").to_string();
        let zero_at = text.rfind('0').expect("literal 0 present");
        assert_eq!(&text[zero_at..zero_at + 1], "0");
        assert!(
            err.contains(&format!("byte {zero_at}")),
            "error should carry the token offset {zero_at}: {err}"
        );
        assert!(err.contains("jobs[0].repeat"), "{err}");
    }

    #[test]
    fn duplicate_explicit_names_are_rejected_at_the_name_token() {
        let text = r#"{"jobs": [
            {"name": "pose", "generate": "globular", "n_atoms": 5},
            {"name": "pose", "generate": "ligand", "n_atoms": 9}
        ]}"#;
        let err = parse_manifest(text)
            .expect_err("duplicate name")
            .to_string();
        // The error points at the *second* "pose" token's opening quote.
        let dup_at = text.rfind("\"pose\"").expect("second pose present");
        assert!(
            err.contains(&format!("byte {dup_at}")),
            "error should carry the duplicate token offset {dup_at}: {err}"
        );
        assert!(
            err.contains("jobs[1].name") && err.contains("duplicates jobs[0]"),
            "{err}"
        );
    }

    #[test]
    fn duplicate_derived_names_are_rejected_with_a_hint() {
        // Two identical generator specs without explicit names derive the
        // same name; the error says how to fix it.
        let text = r#"{"jobs": [
            {"generate": "globular", "n_atoms": 5},
            {"generate": "globular", "n_atoms": 5}
        ]}"#;
        let err = parse_manifest(text).expect_err("derived dup").to_string();
        assert!(
            err.contains("globular_n5_s0") && err.contains("explicit"),
            "{err}"
        );
        // `repeat` stays the sanctioned way to enqueue identical jobs.
        let ok =
            parse_manifest(r#"{"jobs": [{"generate": "globular", "n_atoms": 5, "repeat": 3}]}"#)
                .expect("repeat is not a duplicate");
        assert_eq!(ok.expanded_len(), 3);
    }

    #[test]
    fn frames_spec_parses_with_defaults() {
        let text = r#"{"jobs": [
            { "name": "traj", "generate": "globular", "n_atoms": 40,
              "frames": { "count": 3, "max_step": 0.1, "seed": 5 } },
            { "name": "still", "generate": "ligand", "n_atoms": 10,
              "frames": {} }
        ]}"#;
        let m = parse_manifest(text).expect("valid manifest");
        assert_eq!(
            m.jobs[0].frames,
            Some(FrameSpec {
                count: 3,
                max_step: 0.1,
                seed: 5
            })
        );
        assert_eq!(m.jobs[1].frames, Some(FrameSpec::default()));
    }

    #[test]
    fn bad_frame_specs_are_rejected() {
        let cases: &[(&str, &str)] = &[
            (
                r#"{"jobs": [{"generate": "ligand", "n_atoms": 5, "frames": 4}]}"#,
                "object",
            ),
            (
                r#"{"jobs": [{"generate": "ligand", "n_atoms": 5, "frames": {"count": 0}}]}"#,
                "count",
            ),
            (
                r#"{"jobs": [{"generate": "ligand", "n_atoms": 5, "frames": {"max_step": -1}}]}"#,
                "max_step",
            ),
            (
                r#"{"jobs": [{"generate": "ligand", "n_atoms": 5, "frames": {"steps": 2}}]}"#,
                "unknown key",
            ),
        ];
        for (text, needle) in cases {
            let err = parse_manifest(text).expect_err(text).to_string();
            assert!(err.contains(needle), "{text} -> {err}");
        }
    }

    #[test]
    fn unknown_generator_is_rejected_at_build_time() {
        let m = parse_manifest(r#"{"jobs": [{"generate": "wormhole", "n_atoms": 10}]}"#)
            .expect("parse succeeds; kind checked at build");
        let err = m.jobs[0].build_molecule(Path::new(".")).unwrap_err();
        assert!(err.to_string().contains("wormhole"), "{err}");
    }
}
