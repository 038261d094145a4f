//! # llm4fp
//!
//! The LLM4FP framework (Figure 1 of the paper): strategy selection, program
//! generation, compilation driver, differential testing and the feedback
//! loop of successful programs — plus the three baselines the paper
//! evaluates against (Varity, Direct-Prompt, Grammar-Guided).
//!
//! The central type is [`Campaign`]: configured by a [`CampaignConfig`]
//! (approach, program budget, strategy probabilities, compiler matrix,
//! precision, seeds), it generates programs, feeds each one through the
//! differential-testing matrix, maintains the successful-program set used by
//! Feedback-Based Mutation, and accumulates all the statistics needed to
//! regenerate the paper's tables and figures. [`report`] renders those
//! statistics in the layout of Tables 2–5 and Figure 3.
//!
//! ```no_run
//! use llm4fp::{ApproachKind, Campaign, CampaignConfig};
//!
//! let config = CampaignConfig::new(ApproachKind::Llm4Fp).with_budget(50).with_seed(7);
//! let result = Campaign::new(config).run();
//! println!("inconsistency rate: {:.2}%", 100.0 * result.aggregates.inconsistency_rate());
//! ```

#![deny(unsafe_code)]

pub mod campaign;
pub mod config;
pub mod report;

pub use campaign::{
    Campaign, CampaignResult, CampaignRunner, ProgramRecord, RunnerCheckpoint, SuccessfulSet,
    SuccessfulSetSnapshot,
};
pub use config::{
    ApproachKind, BackendSpec, CampaignConfig, ExternalBackendSpec, ExternalCompilerSpec,
};
pub use llm4fp_difftest::Aggregates;
