//! NiCad-style clone detection (Type-1, Type-2 and Type-2c).
//!
//! * **Type-1** — identical code up to whitespace and comments.
//! * **Type-2** — identical code up to identifiers, literals and types
//!   (every identifier/literal/type abstracted to a placeholder).
//! * **Type-2c** — NiCad's stricter "consistent renaming" variant:
//!   identifiers are renamed by first-occurrence order (so a clone must
//!   rename variables consistently), literals and types are kept.
//!
//! The paper runs NiCad over each approach's 1,000 generated programs and
//! reports that none of these clone types occur; [`detect_clones`]
//! reproduces that check.
//!
//! Each source is keyed by a 64-bit hash of each normal form, built a
//! token at a time, so a corpus report keys its sources in the token pass
//! that profiles them for CodeBLEU and keeps no normal form in memory.
//! Sources that share a key are then split by their spelled-out normal
//! forms, so a hash collision never makes a clone.

use std::collections::HashMap;
use std::fmt::Write;

use serde::{Deserialize, Serialize};

use llm4fp_fpir::tokens::scan_tokens;
use llm4fp_fpir::TokenKind;

/// The clone types considered (Type-3/4 are intentionally out of scope, as
/// in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CloneType {
    Type1,
    Type2,
    Type2c,
}

impl CloneType {
    pub const ALL: [CloneType; 3] = [CloneType::Type1, CloneType::Type2, CloneType::Type2c];

    pub fn name(self) -> &'static str {
        match self {
            CloneType::Type1 => "Type-1",
            CloneType::Type2 => "Type-2",
            CloneType::Type2c => "Type-2c",
        }
    }
}

/// A group of programs (by corpus index) that are clones of one another.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CloneClass {
    pub clone_type: CloneType,
    pub members: Vec<usize>,
}

/// Result of clone detection over a corpus.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CloneReport {
    pub classes: Vec<CloneClass>,
}

impl CloneReport {
    /// Number of clone classes of a given type.
    pub fn class_count(&self, clone_type: CloneType) -> usize {
        self.classes.iter().filter(|c| c.clone_type == clone_type).count()
    }

    /// Number of clone *pairs* of a given type (each class of size k
    /// contributes k·(k−1)/2 pairs).
    pub fn pair_count(&self, clone_type: CloneType) -> usize {
        self.classes
            .iter()
            .filter(|c| c.clone_type == clone_type)
            .map(|c| c.members.len() * (c.members.len() - 1) / 2)
            .sum()
    }

    /// True when no clones of any considered type were found — the outcome
    /// the paper reports for all four approaches.
    pub fn is_clone_free(&self) -> bool {
        self.classes.is_empty()
    }
}

/// Normalize a program for Type-1 comparison: the token texts joined with
/// single spaces (whitespace- and comment-insensitive).
pub fn normalize_type1(source: &str) -> String {
    let [key, _, _] = clone_keys(source);
    key
}

/// Normalize for Type-2: identifiers, literals and type keywords abstracted.
pub fn normalize_type2(source: &str) -> String {
    let [_, key, _] = clone_keys(source);
    key
}

/// Normalize for Type-2c: identifiers renamed consistently by first
/// occurrence (`id0`, `id1`, ...), literals and types preserved.
pub fn normalize_type2c(source: &str) -> String {
    let [_, _, key] = clone_keys(source);
    key
}

/// The Type-1, Type-2 and Type-2c normal forms of `source`, in
/// [`CloneType::ALL`] order, from one pass over its tokens.
fn clone_keys(source: &str) -> [String; 3] {
    let mut forms = [String::new(), String::new(), String::new()];
    let mut normalizer = Normalizer::default();
    scan_tokens(source, |kind, text| {
        for (form, piece) in forms.iter_mut().zip(normalizer.pieces(kind, text)) {
            if !form.is_empty() {
                form.push(' ');
            }
            match piece {
                Piece::Text(text) => form.push_str(text),
                Piece::Renamed(id) => {
                    let _ = write!(form, "id{id}");
                }
            }
        }
    });
    forms
}

/// One token of a normal form: a text, or an identifier's Type-2c number.
enum Piece<'a> {
    Text(&'a str),
    Renamed(usize),
}

/// Turns a source's tokens, in order, into their pieces of the three
/// normal forms.
#[derive(Debug, Default)]
struct Normalizer<'a> {
    /// Each identifier's Type-2c number: its rank by first occurrence.
    renames: HashMap<&'a str, usize>,
}

impl<'a> Normalizer<'a> {
    /// The next token's piece of each normal form, in [`CloneType::ALL`]
    /// order.
    fn pieces(&mut self, kind: TokenKind, text: &'a str) -> [Piece<'a>; 3] {
        let type2 = match kind {
            TokenKind::Ident => "ID",
            TokenKind::IntLit | TokenKind::FpLit => "LIT",
            TokenKind::Keyword if matches!(text, "double" | "float" | "int") => "TYPE",
            _ => text,
        };
        let type2c = if kind == TokenKind::Ident {
            let next = self.renames.len();
            Piece::Renamed(*self.renames.entry(text).or_insert(next))
        } else {
            Piece::Text(text)
        };
        [Piece::Text(text), Piece::Text(type2), type2c]
    }
}

/// A 64-bit FNV-1a hash of each of a source's three normal forms, in
/// [`CloneType::ALL`] order, built a token at a time so that it can share
/// a token pass with the CodeBLEU profile. Equal normal forms hash alike;
/// [`clone_report`] checks every shared hash against the forms themselves.
#[derive(Debug)]
pub(crate) struct CloneKeys<'a> {
    hashes: [u64; 3],
    normalizer: Normalizer<'a>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &byte| (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME))
}

impl Default for CloneKeys<'_> {
    fn default() -> Self {
        CloneKeys { hashes: [FNV_OFFSET; 3], normalizer: Normalizer::default() }
    }
}

impl<'a> CloneKeys<'a> {
    /// The keys of `source`.
    fn of(source: &'a str) -> [u64; 3] {
        let mut keys = CloneKeys::default();
        scan_tokens(source, |kind, text| keys.push(kind, text));
        keys.finish()
    }

    /// Hash in the next token of the source.
    pub(crate) fn push(&mut self, kind: TokenKind, text: &'a str) {
        for (hash, piece) in self.hashes.iter_mut().zip(self.normalizer.pieces(kind, text)) {
            *hash = match piece {
                Piece::Text(text) => fnv(*hash, text.as_bytes()),
                Piece::Renamed(id) => fnv(fnv(*hash, b"id"), &(id as u64).to_le_bytes()),
            };
            *hash = fnv(*hash, b" ");
        }
    }

    pub(crate) fn finish(self) -> [u64; 3] {
        self.hashes
    }
}

/// Detect clone classes of all three types over a corpus of program sources.
pub fn detect_clones(sources: &[String]) -> CloneReport {
    let keys: Vec<[u64; 3]> = sources.iter().map(|source| CloneKeys::of(source)).collect();
    clone_report(sources, &keys)
}

/// The clone classes of `sources`, whose [`CloneKeys`] are `keys`. The
/// sources that share a key are split by their normal forms, so a hash
/// collision never makes a clone.
pub(crate) fn clone_report(sources: &[String], keys: &[[u64; 3]]) -> CloneReport {
    // The normal forms of each source that shares a key, spelled out once.
    let mut forms: Vec<Option<[String; 3]>> = sources.iter().map(|_| None).collect();
    let mut report = CloneReport::default();
    for (slot, clone_type) in CloneType::ALL.into_iter().enumerate() {
        let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, key) in keys.iter().enumerate() {
            buckets.entry(key[slot]).or_default().push(i);
        }
        let mut classes = Vec::new();
        for members in buckets.into_values().filter(|members| members.len() > 1) {
            for &i in &members {
                forms[i].get_or_insert_with(|| clone_keys(&sources[i]));
            }
            let mut by_form: HashMap<&str, Vec<usize>> = HashMap::new();
            for i in members {
                let form = forms[i].as_ref().expect("spelled out above");
                by_form.entry(form[slot].as_str()).or_default().push(i);
            }
            classes.extend(
                by_form
                    .into_values()
                    .filter(|members| members.len() > 1)
                    .map(|members| CloneClass { clone_type, members }),
            );
        }
        classes.sort_by(|a, b| a.members.cmp(&b.members));
        report.classes.extend(classes);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str =
        "void compute(double x) {\n    double comp = 0.0;\n    comp = x * 2.0 + 1.0;\n}";

    #[test]
    fn normal_forms_are_spelled_token_by_token() {
        let src = "void compute(double x) { /* c */ comp = x + 1.0 * x; }";
        assert_eq!(normalize_type1(src), "void compute ( double x ) { comp = x + 1.0 * x ; }");
        assert_eq!(normalize_type2(src), "void ID ( TYPE ID ) { ID = ID + LIT * ID ; }");
        assert_eq!(normalize_type2c(src), "void id0 ( double id1 ) { id2 = id1 + 1.0 * id1 ; }");
        assert_eq!(normalize_type1(""), "");
    }

    #[test]
    fn whitespace_variants_are_type1_clones() {
        let reformatted = "void compute(double x){double comp=0.0; /* c */ comp = x*2.0+1.0;}";
        let report = detect_clones(&[BASE.to_string(), reformatted.to_string()]);
        assert_eq!(report.class_count(CloneType::Type1), 1);
        assert_eq!(report.pair_count(CloneType::Type1), 1);
        // A Type-1 clone is necessarily also Type-2 and Type-2c.
        assert_eq!(report.class_count(CloneType::Type2), 1);
        assert_eq!(report.class_count(CloneType::Type2c), 1);
        assert!(!report.is_clone_free());
    }

    #[test]
    fn renamed_programs_are_type2_and_type2c_but_not_type1() {
        let renamed =
            "void compute(double y) {\n    double comp = 0.0;\n    comp = y * 2.0 + 1.0;\n}";
        let report = detect_clones(&[BASE.to_string(), renamed.to_string()]);
        assert_eq!(report.class_count(CloneType::Type1), 0);
        assert_eq!(report.class_count(CloneType::Type2), 1);
        assert_eq!(report.class_count(CloneType::Type2c), 1);
    }

    #[test]
    fn changed_literals_are_type2_but_not_type2c() {
        let changed =
            "void compute(double x) {\n    double comp = 0.0;\n    comp = x * 7.5 + 1.0;\n}";
        let report = detect_clones(&[BASE.to_string(), changed.to_string()]);
        assert_eq!(report.class_count(CloneType::Type1), 0);
        assert_eq!(report.class_count(CloneType::Type2), 1);
        assert_eq!(report.class_count(CloneType::Type2c), 0);
    }

    #[test]
    fn inconsistent_renaming_is_not_type2c() {
        // x is renamed to two different identifiers in different uses.
        let a = "void compute(double x) { double comp = 0.0; comp = x + x; }";
        let b = "void compute(double u) { double comp = 0.0; comp = u + comp; }";
        let report = detect_clones(&[a.to_string(), b.to_string()]);
        assert_eq!(report.class_count(CloneType::Type2c), 0);
        // But abstracting all identifiers makes them Type-2 clones.
        assert_eq!(report.class_count(CloneType::Type2), 1);
    }

    #[test]
    fn structurally_different_programs_are_clone_free() {
        let other = "void compute(double x) {\n    double comp = 0.0;\n    for (int i = 0; i < 3; ++i) { comp += sin(x); }\n}";
        let report = detect_clones(&[BASE.to_string(), other.to_string()]);
        assert!(report.is_clone_free());
        for t in CloneType::ALL {
            assert_eq!(report.class_count(t), 0, "{}", t.name());
            assert_eq!(report.pair_count(t), 0);
        }
    }

    #[test]
    fn sources_that_share_a_key_are_split_by_their_normal_forms() {
        let renamed = BASE.replace('x', "y");
        let other = "void compute(double x) {\n    double comp = 0.0;\n    comp = sin(x);\n}";
        let sources = [BASE.to_string(), renamed, other.to_string(), format!("{BASE}\n")];
        // As if every key collided with every other.
        let report = clone_report(&sources, &[[0; 3]; 4]);
        assert_eq!(report, detect_clones(&sources));
        let members = |clone_type| {
            let classes = report.classes.iter().filter(|c| c.clone_type == clone_type);
            classes.map(|c| c.members.clone()).collect::<Vec<_>>()
        };
        assert_eq!(members(CloneType::Type1), [vec![0, 3]]);
        assert_eq!(members(CloneType::Type2), [vec![0, 1, 3]]);
        assert_eq!(members(CloneType::Type2c), [vec![0, 1, 3]]);
    }

    #[test]
    fn clone_classes_group_all_members() {
        let copy1 = BASE.to_string();
        let copy2 = BASE.replace("    ", "\t");
        let copy3 = format!("{BASE}\n");
        let report = detect_clones(&[copy1, copy2, copy3]);
        assert_eq!(report.class_count(CloneType::Type1), 1);
        assert_eq!(report.pair_count(CloneType::Type1), 3);
        let class = report.classes.iter().find(|c| c.clone_type == CloneType::Type1).unwrap();
        assert_eq!(class.members, vec![0, 1, 2]);
    }
}
