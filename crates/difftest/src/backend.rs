//! The pluggable execution-backend layer.
//!
//! [`ExecBackend`] selects how the differential tester obtains each
//! configuration's result bits: the **virtual** compiler (sealed bytecode
//! VM or the reference interpreter — machine-independent, the evaluation
//! default) or an **external** real toolchain driven through
//! `llm4fp-extcc` (`std::process` spawns with the exact Table 1 flags).
//! Both paths flow into the same [`crate::ProgramDiffResult`] shape, so
//! comparison, aggregation, caching, campaign and orchestrator code are
//! backend-agnostic.

use std::sync::Arc;

use llm4fp_extcc::HostToolchain;

use crate::matrix::ExecEngine;

/// Which execution backend produces a configuration's result bits.
#[derive(Debug, Clone)]
pub enum ExecBackend {
    /// The virtual compiler (the default: sealed register VM, with
    /// [`ExecEngine::Reference`] selecting the tree-walking interpreter).
    Virtual(ExecEngine),
    /// A real host toolchain: compile with actual binaries, run the
    /// produced executables, parse the printed bit patterns. External
    /// failures (compile errors, crashes, timeouts, garbage output) are
    /// recorded as `CompileFail`/`ExecFail` outcomes, never panics.
    External(Arc<HostToolchain>),
}

impl Default for ExecBackend {
    fn default() -> Self {
        ExecBackend::Virtual(ExecEngine::default())
    }
}

impl ExecBackend {
    /// True for the external (process-spawning) backend.
    pub fn is_external(&self) -> bool {
        matches!(self, ExecBackend::External(_))
    }

    /// Stable identity of this backend for result-cache key scoping.
    /// The two virtual engines are pinned bit-identical, so they share
    /// one identity; external identities cover binaries, versions and the
    /// timeout (see [`HostToolchain::fingerprint`]).
    pub fn fingerprint(&self) -> String {
        match self {
            ExecBackend::Virtual(_) => "virtual".to_string(),
            ExecBackend::External(toolchain) => toolchain.fingerprint(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_fingerprints_distinguish_external_toolchains_only() {
        let sealed = ExecBackend::Virtual(ExecEngine::Sealed);
        let reference = ExecBackend::Virtual(ExecEngine::Reference);
        // The two virtual engines are bit-identical by invariant, so they
        // intentionally share cache identity.
        assert_eq!(sealed.fingerprint(), reference.fingerprint());
        assert!(!sealed.is_external());
        let external = ExecBackend::External(Arc::new(HostToolchain::new(vec![])));
        assert!(external.is_external());
        assert_ne!(external.fingerprint(), sealed.fingerprint());
    }
}
