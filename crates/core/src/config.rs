//! Campaign configuration: the evaluated approaches and their parameters.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use llm4fp_compiler::{CompilerId, OptLevel, SealMode};
use llm4fp_extcc::{probe_compiler, HostCompiler, HostToolchain};
use llm4fp_fpir::Precision;
use llm4fp_generator::SamplingParams;

/// The four approaches compared in RQ1 (Section 3.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ApproachKind {
    /// Varity: unguided random grammar-based generation.
    Varity,
    /// Direct-Prompt: LLM generation without grammar or examples.
    DirectPrompt,
    /// Grammar-Guided: LLM generation with the Figure 2 grammar.
    GrammarGuided,
    /// LLM4FP: Grammar-Guided plus the Feedback-Based Mutation loop.
    Llm4Fp,
}

impl ApproachKind {
    /// All approaches in the order Table 2 lists them.
    pub const ALL: [ApproachKind; 4] = [
        ApproachKind::Varity,
        ApproachKind::DirectPrompt,
        ApproachKind::GrammarGuided,
        ApproachKind::Llm4Fp,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            ApproachKind::Varity => "Varity",
            ApproachKind::DirectPrompt => "Direct-Prompt",
            ApproachKind::GrammarGuided => "Grammar-Guided",
            ApproachKind::Llm4Fp => "LLM4FP",
        }
    }

    /// True for the approaches that call the (simulated) LLM.
    pub fn uses_llm(self) -> bool {
        !matches!(self, ApproachKind::Varity)
    }

    /// True for the approach that uses the feedback loop.
    pub fn uses_feedback(self) -> bool {
        matches!(self, ApproachKind::Llm4Fp)
    }
}

impl std::fmt::Display for ApproachKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which execution backend a campaign drives its differential tests
/// through. Part of [`CampaignConfig`] — and therefore of the persisted
/// run manifest — because backend identity determines result bits: a
/// campaign is a pure function of its configuration only together with
/// the toolchain the spec pins.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum BackendSpec {
    /// The virtual compiler (sealed bytecode VM) — machine-independent,
    /// the evaluation default.
    #[default]
    Virtual,
    /// Real host compilers driven through `llm4fp-extcc`.
    External(ExternalBackendSpec),
}

impl BackendSpec {
    /// True when the campaign spawns real compiler processes.
    pub fn is_external(&self) -> bool {
        matches!(self, BackendSpec::External(_))
    }
}

// Hand-written (de)serialization mirroring the derive's wire format
// (`"Virtual"` / `{"External": {...}}`) with one extension: a missing or
// null field decodes as `Virtual`, so run manifests persisted before the
// backend field existed keep loading — and resuming — unchanged.
impl serde::Serialize for BackendSpec {
    fn to_value(&self) -> serde::Value {
        match self {
            BackendSpec::Virtual => serde::Value::Str("Virtual".to_string()),
            BackendSpec::External(spec) => {
                let mut m = serde::Map::new();
                m.insert("External".to_string(), serde::Serialize::to_value(spec));
                serde::Value::Obj(m)
            }
        }
    }
}

impl serde::Deserialize for BackendSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Null => Ok(BackendSpec::Virtual),
            serde::Value::Str(s) if s == "Virtual" => Ok(BackendSpec::Virtual),
            serde::Value::Obj(m) => match m.get("External") {
                Some(inner) => Ok(BackendSpec::External(serde::Deserialize::from_value(inner)?)),
                None => Err(serde::Error::msg("unknown variant of BackendSpec")),
            },
            _ => Err(serde::Error::msg("unexpected value for BackendSpec")),
        }
    }
}

/// One pinned external compiler: personality, binary path, and the
/// version line the binary reported when the spec was built.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExternalCompilerSpec {
    /// Which personality this binary implements.
    pub id: CompilerId,
    /// The executable name/path.
    pub binary: String,
    /// Version line probed at spec-construction time (`"unprobed"` when
    /// the binary did not respond). Pinned here — not re-probed per
    /// runner — so the cache-scoping fingerprint is stable across shards,
    /// and a persisted run manifest records exactly which toolchain
    /// produced it: resuming after a compiler upgrade fails the manifest
    /// equality check instead of silently mixing toolchains.
    pub version: String,
}

/// Serializable description of an external toolchain: which binary
/// implements each compiler personality (with its pinned version line),
/// and the per-process wall-clock timeout. The description is
/// deliberately explicit (paths + versions, not "use whatever is
/// installed") so persisted manifests pin the toolchain a run was
/// recorded against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExternalBackendSpec {
    /// The pinned compiler entries.
    pub compilers: Vec<ExternalCompilerSpec>,
    /// Wall-clock timeout per external process (compile or run), in
    /// milliseconds. Timeouts are recorded as findings, not errors.
    pub timeout_ms: u64,
}

impl ExternalBackendSpec {
    /// Default per-process timeout (mirrors
    /// `HostToolchain::DEFAULT_TIMEOUT`).
    pub const DEFAULT_TIMEOUT_MS: u64 = 10_000;

    /// Build a spec from explicit `(personality, binary)` pairs, probing
    /// each binary **once** for its version line (pinned into the spec;
    /// `"unprobed"` for binaries that do not respond — they stay in the
    /// spec and surface as recorded I/O findings at compile time).
    pub fn new(compilers: Vec<(CompilerId, String)>) -> Self {
        let compilers = compilers
            .into_iter()
            .map(|(id, binary)| {
                let version = probe_compiler(id, &binary)
                    .map_or_else(|| "unprobed".to_string(), |c| c.version);
                ExternalCompilerSpec { id, binary, version }
            })
            .collect();
        Self::from_specs(compilers)
    }

    /// Build a spec from already-probed compiler entries (no extra
    /// process spawns).
    pub fn from_host_compilers(compilers: Vec<HostCompiler>) -> Self {
        Self::from_specs(
            compilers
                .into_iter()
                .map(|c| ExternalCompilerSpec { id: c.id, binary: c.binary, version: c.version })
                .collect(),
        )
    }

    fn from_specs(compilers: Vec<ExternalCompilerSpec>) -> Self {
        ExternalBackendSpec { compilers, timeout_ms: Self::DEFAULT_TIMEOUT_MS }
    }

    /// Probe this machine for host compilers (gcc, clang) and pin
    /// whatever responds. `None` when no compiler is installed.
    pub fn detect() -> Option<Self> {
        let found = llm4fp_extcc::detect_host_compilers();
        if found.is_empty() {
            return None;
        }
        Some(Self::from_host_compilers(found))
    }

    /// The compiler personalities this spec provides binaries for —
    /// external campaigns restrict their matrix to these.
    pub fn compiler_ids(&self) -> Vec<CompilerId> {
        self.compilers.iter().map(|c| c.id).collect()
    }

    /// True when the spec pins at least the two compilers differential
    /// testing needs.
    pub fn has_differential_pair(&self) -> bool {
        self.compilers.len() >= 2
    }

    /// Human-readable `gcc=/usr/bin/gcc, clang=...` listing of the
    /// pinned binaries (for CLI messages).
    pub fn describe(&self) -> String {
        self.compilers
            .iter()
            .map(|c| format!("{}={}", c.id.name(), c.binary))
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Instantiate the toolchain this spec describes, verbatim — no
    /// re-probing, so every runner built from one spec shares one
    /// fingerprint.
    pub fn toolchain(&self) -> HostToolchain {
        let entries = self
            .compilers
            .iter()
            .map(|c| HostCompiler {
                id: c.id,
                binary: c.binary.clone(),
                version: c.version.clone(),
            })
            .collect();
        HostToolchain::new(entries).with_timeout(Duration::from_millis(self.timeout_ms))
    }
}

/// Full configuration of one campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Which approach generates the programs.
    pub approach: ApproachKind,
    /// Program budget N (the paper uses 1,000 per approach).
    pub programs: usize,
    /// Base RNG seed (generation, inputs and the simulated LLM derive their
    /// seeds from it, so a campaign is fully reproducible).
    pub seed: u64,
    /// Floating-point precision of generated programs (FP64 by default).
    pub precision: Precision,
    /// Probability of choosing Grammar-Based Generation once the successful
    /// set is non-empty (the paper uses 0.3; feedback mutation gets 0.7).
    pub grammar_probability: f64,
    /// Compilers under test.
    pub compilers: Vec<CompilerId>,
    /// Optimization levels under test.
    pub levels: Vec<OptLevel>,
    /// Worker threads for the CodeBLEU diversity report
    /// ([`CampaignResult::measure_diversity`](crate::CampaignResult::measure_diversity)).
    /// The differential-testing matrix always runs on the shard's own
    /// thread, so results never depend on this value. It stays a field
    /// because run manifests and wire jobs serialize it.
    pub threads: usize,
    /// LLM sampling parameters.
    pub sampling: SamplingParams,
    /// Probability that a Direct-Prompt generation is invalid (models the
    /// lack of grammar guidance).
    pub direct_prompt_invalid_rate: f64,
    /// Upper bound on the number of program pairs scored for the CodeBLEU
    /// diversity report (the full quadratic pairing is used when it fits).
    pub max_codebleu_pairs: usize,
    /// Execution backend (virtual compiler by default; an external spec
    /// drives real host toolchains through `llm4fp-extcc`).
    pub backend: BackendSpec,
    /// Whether virtual sealing runs the seal-time peephole optimizer.
    /// Pure performance knob — the modes are pinned bit-identical, so
    /// results never depend on it ( `--no-seal-opt` sets `Raw` for A/B
    /// benchmarking). Missing/null in persisted configs decodes as
    /// `Optimized`, so pre-optimizer run manifests keep resuming.
    pub seal_mode: SealMode,
}

impl CampaignConfig {
    /// Default configuration for an approach: paper-faithful parameters with
    /// a reduced default budget (use [`Self::paper_scale`] or
    /// [`Self::with_budget`] to change it).
    pub fn new(approach: ApproachKind) -> Self {
        CampaignConfig {
            approach,
            programs: 100,
            seed: 0xfeed_f00d,
            precision: Precision::F64,
            grammar_probability: 0.3,
            compilers: CompilerId::ALL.to_vec(),
            levels: OptLevel::ALL.to_vec(),
            threads: 4,
            sampling: SamplingParams::paper_defaults(),
            direct_prompt_invalid_rate: 0.08,
            max_codebleu_pairs: 20_000,
            backend: BackendSpec::Virtual,
            seal_mode: SealMode::Optimized,
        }
    }

    /// The paper's full budget of 1,000 programs per approach.
    pub fn paper_scale(approach: ApproachKind) -> Self {
        Self::new(approach).with_budget(1_000)
    }

    /// Set the program budget.
    pub fn with_budget(mut self, programs: usize) -> Self {
        self.programs = programs;
        self
    }

    /// Set the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the precision.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Set the number of CodeBLEU diversity-report worker threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Select the execution backend. For an external spec the compiler
    /// matrix is restricted to the personalities the spec provides
    /// binaries for (a matrix column without a binary would only record
    /// `MissingCompiler` findings).
    pub fn with_backend(mut self, backend: BackendSpec) -> Self {
        if let BackendSpec::External(spec) = &backend {
            let available = spec.compiler_ids();
            self.compilers.retain(|c| available.contains(c));
        }
        self.backend = backend;
        self
    }

    /// Select the seal mode (peephole optimizer on/off; bit-identical
    /// either way — an A/B performance knob).
    pub fn with_seal_mode(mut self, mode: SealMode) -> Self {
        self.seal_mode = mode;
        self
    }

    /// Total number of pairwise comparisons this campaign contributes to the
    /// denominator of the inconsistency rate.
    pub fn total_comparisons(&self) -> usize {
        let c = self.compilers.len();
        c * (c - 1) / 2 * self.levels.len() * self.programs
    }

    /// Basic sanity checks (probabilities in range, non-empty matrix).
    pub fn validate(&self) -> Result<(), String> {
        if self.programs == 0 {
            return Err("program budget must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.grammar_probability) {
            return Err("grammar_probability must be within [0, 1]".into());
        }
        if !(0.0..=1.0).contains(&self.direct_prompt_invalid_rate) {
            return Err("direct_prompt_invalid_rate must be within [0, 1]".into());
        }
        if self.compilers.len() < 2 {
            return Err("at least two compilers are required for differential testing".into());
        }
        if self.levels.is_empty() {
            return Err("at least one optimization level is required".into());
        }
        if let BackendSpec::External(spec) = &self.backend {
            if spec.compilers.is_empty() {
                return Err("external backend spec names no compiler binaries".into());
            }
            if spec.timeout_ms == 0 {
                return Err("external backend timeout must be positive".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approach_properties_match_the_paper() {
        assert_eq!(ApproachKind::ALL.len(), 4);
        assert_eq!(ApproachKind::Varity.name(), "Varity");
        assert_eq!(ApproachKind::Llm4Fp.to_string(), "LLM4FP");
        assert!(!ApproachKind::Varity.uses_llm());
        assert!(ApproachKind::DirectPrompt.uses_llm());
        assert!(ApproachKind::Llm4Fp.uses_feedback());
        assert!(!ApproachKind::GrammarGuided.uses_feedback());
    }

    #[test]
    fn paper_scale_matches_section_3_1_3() {
        let cfg = CampaignConfig::paper_scale(ApproachKind::Llm4Fp);
        assert_eq!(cfg.programs, 1_000);
        assert_eq!(cfg.compilers.len(), 3);
        assert_eq!(cfg.levels.len(), 6);
        assert_eq!(cfg.total_comparisons(), 18_000);
        assert_eq!(cfg.grammar_probability, 0.3);
        assert_eq!(cfg.precision, Precision::F64);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn builders_and_validation() {
        let cfg = CampaignConfig::new(ApproachKind::Varity)
            .with_budget(10)
            .with_seed(3)
            .with_threads(0)
            .with_precision(Precision::F32);
        assert_eq!(cfg.programs, 10);
        assert_eq!(cfg.seed, 3);
        assert_eq!(cfg.threads, 1);
        assert_eq!(cfg.precision, Precision::F32);

        let mut bad = CampaignConfig::new(ApproachKind::Varity);
        bad.programs = 0;
        assert!(bad.validate().is_err());
        let mut bad = CampaignConfig::new(ApproachKind::Varity);
        bad.grammar_probability = 1.5;
        assert!(bad.validate().is_err());
        let mut bad = CampaignConfig::new(ApproachKind::Varity);
        bad.compilers.truncate(1);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn configs_serialize_round_trip() {
        let cfg = CampaignConfig::paper_scale(ApproachKind::GrammarGuided);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: CampaignConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn external_backend_specs_round_trip_and_restrict_the_matrix() {
        let spec = ExternalBackendSpec::new(vec![
            (CompilerId::Gcc, "/usr/bin/gcc".to_string()),
            (CompilerId::Clang, "/usr/bin/clang".to_string()),
        ]);
        assert_eq!(spec.timeout_ms, ExternalBackendSpec::DEFAULT_TIMEOUT_MS);
        assert_eq!(spec.compiler_ids(), vec![CompilerId::Gcc, CompilerId::Clang]);

        let cfg = CampaignConfig::new(ApproachKind::Varity)
            .with_backend(BackendSpec::External(spec.clone()));
        // nvcc has no host binary: the matrix drops to the spec's set.
        assert_eq!(cfg.compilers, vec![CompilerId::Gcc, CompilerId::Clang]);
        assert!(cfg.backend.is_external());
        assert!(cfg.validate().is_ok());

        let json = serde_json::to_string(&cfg).unwrap();
        let back: CampaignConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);

        // Virtual configs stay untouched and non-external.
        let virt = CampaignConfig::new(ApproachKind::Varity);
        assert_eq!(virt.backend, BackendSpec::Virtual);
        assert!(!virt.backend.is_external());
        assert_eq!(virt.compilers.len(), 3);
    }

    #[test]
    fn manifests_without_a_seal_mode_field_decode_as_optimized() {
        // Run dirs persisted before the seal-time optimizer existed must
        // keep loading (and resuming) with the current default mode.
        let cfg = CampaignConfig::new(ApproachKind::Varity);
        let json = serde_json::to_string(&cfg).unwrap();
        let mut value = serde_json::parse(&json).unwrap();
        if let serde::Value::Obj(m) = &mut value {
            assert!(m.remove("seal_mode").is_some(), "seal_mode field serialized");
        } else {
            panic!("config serializes as an object");
        }
        let back: CampaignConfig = serde_json::from_value(&value).unwrap();
        assert_eq!(back.seal_mode, SealMode::Optimized);
        assert_eq!(back, cfg);

        let raw = CampaignConfig::new(ApproachKind::Varity).with_seal_mode(SealMode::Raw);
        let json = serde_json::to_string(&raw).unwrap();
        let back: CampaignConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.seal_mode, SealMode::Raw);
    }

    #[test]
    fn manifests_without_a_backend_field_decode_as_virtual() {
        // Run dirs persisted before the backend field existed must keep
        // loading (and therefore resuming) as virtual-backend campaigns.
        let cfg = CampaignConfig::new(ApproachKind::Varity);
        let json = serde_json::to_string(&cfg).unwrap();
        let mut value = serde_json::parse(&json).unwrap();
        if let serde::Value::Obj(m) = &mut value {
            assert!(m.remove("backend").is_some(), "backend field serialized");
        } else {
            panic!("config serializes as an object");
        }
        let back: CampaignConfig = serde_json::from_value(&value).unwrap();
        assert_eq!(back.backend, BackendSpec::Virtual);
        assert_eq!(back, cfg);
    }

    #[test]
    fn degenerate_external_specs_fail_validation() {
        let mut cfg = CampaignConfig::new(ApproachKind::Varity);
        cfg.backend = BackendSpec::External(ExternalBackendSpec::new(vec![]));
        assert!(cfg.validate().unwrap_err().contains("no compiler binaries"));
        let mut spec = ExternalBackendSpec::new(vec![(CompilerId::Gcc, "gcc".to_string())]);
        spec.timeout_ms = 0;
        // Keep >= 2 matrix compilers so the backend check is what fires.
        let mut cfg = CampaignConfig::new(ApproachKind::Varity);
        cfg.backend = BackendSpec::External(spec);
        assert!(cfg.validate().unwrap_err().contains("timeout"));
    }

    #[test]
    fn unprobed_binaries_still_build_a_toolchain() {
        let spec = ExternalBackendSpec::new(vec![(
            CompilerId::Gcc,
            "/nonexistent/llm4fp-no-such-compiler".to_string(),
        )]);
        let toolchain = spec.toolchain();
        let entry = toolchain.compiler_for(CompilerId::Gcc).expect("entry kept");
        assert_eq!(entry.version, "unprobed");
    }
}
