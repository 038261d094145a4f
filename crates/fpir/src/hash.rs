//! Structural hashing of programs.
//!
//! A program's identity is one 64-bit FNV-1a hash over the token stream of
//! its canonical `compute` source ([`crate::to_compute_source`]), so it is
//! insensitive to whitespace and comments. The feedback loop deduplicates
//! the successful set by it, input sets are derived from it, and
//! experiment records and cache keys carry it as a 16-hex id.
//!
//! There is one implementation: [`program_hash`] prints the program and
//! hashes the text with [`source_hash`]. A caller that already holds the
//! canonical source (the campaign runner prints each program once) hashes
//! it directly and formats the id with [`hash_id`].

use crate::ast::Program;
use crate::printer::to_compute_source;
use crate::tokens::scan_tokens;

/// Hash of the program's canonical token stream:
/// `source_hash(&to_compute_source(program))`.
pub fn program_hash(program: &Program) -> u64 {
    source_hash(&to_compute_source(program))
}

/// Hash of arbitrary C source, applied to its token stream so formatting
/// differences do not change the hash. Each token's bytes are followed by
/// a `0xff` separator, so `"ab","c"` and `"a","bc"` hash apart.
pub fn source_hash(src: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut mix = |b: u8| hash = (hash ^ b as u64).wrapping_mul(PRIME);
    scan_tokens(src, |_, text| {
        text.bytes().for_each(&mut mix);
        mix(0xff);
    });
    hash
}

/// The printable program id of a structural hash (16 hex characters).
pub fn hash_id(hash: u64) -> String {
    format!("{hash:016x}")
}

/// Short printable identifier of the program: `hash_id(program_hash(program))`.
pub fn program_id(program: &Program) -> String {
    hash_id(program_hash(program))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ast::{AssignOp, Block, Expr, Precision, Program, Stmt};

    pub(crate) fn program_with_constant(c: f64) -> Program {
        Program {
            precision: Precision::F64,
            params: vec![],
            body: Block::new(vec![Stmt::Assign {
                target: crate::COMP.into(),
                op: AssignOp::Assign,
                expr: Expr::Num(c),
            }]),
        }
    }

    /// Programs covering every statement form, array parameters and math
    /// calls. The printer's golden test renders them too.
    pub(crate) const CORPUS: [&str; 5] = [
        "void compute(double x) { comp = x; }",
        "void compute(double x, double y) { comp = x * y + 2.5; comp /= y - 0.5; }",
        "void compute(float x, float *a) {\n\
         for (int i = 0; i < 3; ++i) { comp += a[i] / x; }\n\
         }",
        "void compute(double *a, double s, int n) {\n\
         double acc = 0.0;\n\
         double buf[3] = {1.5, -2.25};\n\
         for (int i = 0; i < 4; ++i) {\n\
           acc += a[i % 4] * s + sin(a[i % 4]);\n\
           buf[i % 3] = acc / (s + 2.0);\n\
         }\n\
         if (acc > 1.0) { comp = acc - buf[0]; }\n\
         if (acc <= 1.0) { comp = acc + buf[n % 3] * exp(s); }\n\
         }",
        "void compute(double x) { comp = pow(x, 2.0) + fmin(x, 0.125) - atan2(x, 3.0); }",
    ];

    #[test]
    fn hash_is_deterministic_and_sensitive_to_content() {
        let a = program_with_constant(1.5);
        let b = program_with_constant(1.5);
        let c = program_with_constant(2.5);
        assert_eq!(program_hash(&a), program_hash(&b));
        assert_ne!(program_hash(&a), program_hash(&c));
    }

    #[test]
    fn source_hash_ignores_whitespace_and_comments() {
        let a = source_hash("comp = a + b;");
        let b = source_hash("comp   =\n a /* note */ + b ;");
        assert_eq!(a, b);
        let c = source_hash("comp = a - b;");
        assert_ne!(a, c);
    }

    #[test]
    fn token_separator_prevents_concatenation_collisions() {
        assert_ne!(source_hash("ab c"), source_hash("a bc"));
    }

    #[test]
    fn streaming_hash_matches_legacy_token_hash_on_corpus() {
        // The legacy implementation rendered the whole program to a
        // `String`, collected the token texts, copied them into a byte
        // buffer with 0xff separators and hashed that. The current
        // implementation must produce the identical value for every
        // program.
        fn legacy(src: &str) -> u64 {
            const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
            const PRIME: u64 = 0x0000_0100_0000_01b3;
            let mut bytes = Vec::with_capacity(src.len());
            for t in crate::tokens::token_texts(src) {
                bytes.extend_from_slice(t.as_bytes());
                bytes.push(0xff);
            }
            let mut hash = OFFSET;
            for b in bytes {
                hash ^= b as u64;
                hash = hash.wrapping_mul(PRIME);
            }
            hash
        }
        for src in CORPUS {
            let program = crate::parser::parse_compute(src).unwrap();
            let rendered = crate::printer::to_compute_source(&program);
            assert_eq!(program_hash(&program), legacy(&rendered), "program hash changed: {src}");
            assert_eq!(source_hash(src), legacy(src), "source hash changed: {src}");
            assert_eq!(source_hash(&rendered), program_hash(&program));
        }
        // Odd fractional constants render as hex-float literals; the hash
        // must cover those identically too.
        let program = program_with_constant(0.1);
        let rendered = crate::printer::to_compute_source(&program);
        assert!(rendered.contains("0x"), "{rendered}");
        assert_eq!(program_hash(&program), legacy(&rendered));
    }

    #[test]
    fn program_ids_are_pinned_by_value() {
        // Input derivation, cache keys and the ids in run dirs all depend
        // on these values. The legacy oracle shares the printer and
        // the tokenizer with the code it checks; literal ids also catch a
        // drift in either.
        let expected = [
            "523eb182c00b909c",
            "f926128f6be9da2a",
            "527fabfa2abd3fc2",
            "82a912b89898cbd5",
            "b3bfedb31ebe0db5",
        ];
        for (src, id) in CORPUS.into_iter().zip(expected) {
            let program = crate::parser::parse_compute(src).unwrap();
            assert_eq!(program_id(&program), id, "{src}");
        }
        assert_eq!(program_id(&program_with_constant(0.1)), "c64408f006c24186");
    }

    #[test]
    fn program_id_is_16_hex_chars() {
        let id = program_id(&program_with_constant(0.25));
        assert_eq!(id.len(), 16);
        assert!(id.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
