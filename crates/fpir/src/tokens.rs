//! A small C-like tokenizer.
//!
//! It is shared by the [`crate::parser`] (to re-parse generated programs) and
//! by the diversity metrics in `llm4fp-metrics` (CodeBLEU n-grams, clone
//! detection), which need a token stream that is stable under whitespace and
//! comment changes.

use serde::{Deserialize, Serialize};

/// Kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TokenKind {
    /// C keyword (from the small set used by the grammar).
    Keyword,
    /// Identifier (variable, function name).
    Ident,
    /// Integer literal.
    IntLit,
    /// Floating-point literal (decimal or hexadecimal).
    FpLit,
    /// String literal (only appears in the printing epilogue).
    StrLit,
    /// Punctuation / operator.
    Punct,
}

/// A single token: its kind and its exact text.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Token {
    pub kind: TokenKind,
    pub text: String,
}

impl Token {
    pub fn new(kind: TokenKind, text: impl Into<String>) -> Self {
        Token { kind, text: text.into() }
    }
}

/// The C keywords recognized by the tokenizer.
pub const KEYWORDS: &[&str] = &[
    "void",
    "int",
    "float",
    "double",
    "for",
    "if",
    "else",
    "return",
    "union",
    "unsigned",
    "long",
    "char",
    "const",
    "static",
    "while",
    "do",
    "break",
    "continue",
    "struct",
    "sizeof",
    "__global__",
    "include",
];

/// Multi-character punctuation, longest first so maximal munch works.
const MULTI_PUNCT: &[&str] = &[
    "<<<", ">>>", "<<=", ">>=", "==", "!=", "<=", ">=", "&&", "||", "++", "--", "+=", "-=", "*=",
    "/=", "%=", "->", "<<", ">>",
];

/// Streaming tokenizer: call `f` with each token's kind and text slice, in
/// source order, without allocating. Each slice borrows from `src`, so a
/// caller may keep it after `f` returns: the parser collects
/// `(TokenKind, &str)` pairs and never copies a token's text. Comments
/// (`//` and `/* */`), preprocessor lines (`#include ...`) and whitespace
/// are skipped. Unknown characters are emitted as single-character
/// punctuation so that tokenization never fails. [`tokenize`] and the
/// structural hashes in `crate::hash` are built on this scanner — the hash
/// path feeds the token bytes straight into its hasher without
/// materializing any token list. Program ids hash this scanner's output,
/// so its token boundaries are part of every id.
pub fn scan_tokens<'a>(src: &'a str, mut f: impl FnMut(TokenKind, &'a str)) {
    let bytes = src.as_bytes();
    let n = bytes.len();
    let mut i = 0usize;
    while i < n {
        let b = bytes[i];
        // Non-ASCII: decode the char, then treat it like the char-based
        // tokenizer did (skip unicode whitespace, emit anything else as a
        // single-character punctuation token).
        if b >= 0x80 {
            let c = src[i..].chars().next().expect("valid UTF-8");
            let len = c.len_utf8();
            if !c.is_whitespace() {
                f(TokenKind::Punct, &src[i..i + len]);
            }
            i += len;
            continue;
        }
        let c = b as char;
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Preprocessor directives: skip to end of line.
        if c == '#' {
            while i < n && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        // Line comment.
        if c == '/' && i + 1 < n && bytes[i + 1] == b'/' {
            while i < n && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        // Block comment.
        if c == '/' && i + 1 < n && bytes[i + 1] == b'*' {
            i += 2;
            while i + 1 < n && !(bytes[i] == b'*' && bytes[i + 1] == b'/') {
                i += 1;
            }
            i = (i + 2).min(n);
            continue;
        }
        // String literal. Scanning bytes is UTF-8 safe: the quote and
        // backslash bytes never occur inside a multi-byte sequence.
        if c == '"' {
            let start = i;
            i += 1;
            while i < n && bytes[i] != b'"' {
                if bytes[i] == b'\\' {
                    i += 1;
                }
                i += 1;
            }
            i = (i + 1).min(n);
            f(TokenKind::StrLit, &src[start..i.min(n)]);
            continue;
        }
        // Identifier / keyword.
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < n && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let text = &src[start..i];
            let kind = if KEYWORDS.contains(&text) { TokenKind::Keyword } else { TokenKind::Ident };
            f(kind, text);
            continue;
        }
        // Numeric literal (decimal or hexadecimal, integer or floating).
        if c.is_ascii_digit() || (c == '.' && i + 1 < n && bytes[i + 1].is_ascii_digit()) {
            let start = i;
            let mut is_fp = c == '.';
            let hex = c == '0' && i + 1 < n && (bytes[i + 1] == b'x' || bytes[i + 1] == b'X');
            if hex {
                i += 2;
                while i < n
                    && (bytes[i].is_ascii_hexdigit()
                        || bytes[i] == b'.'
                        || bytes[i] == b'p'
                        || bytes[i] == b'P'
                        || ((bytes[i] == b'+' || bytes[i] == b'-')
                            && (bytes[i - 1] == b'p' || bytes[i - 1] == b'P')))
                {
                    if bytes[i] == b'.' || bytes[i] == b'p' || bytes[i] == b'P' {
                        is_fp = true;
                    }
                    i += 1;
                }
            } else {
                while i < n
                    && (bytes[i].is_ascii_digit()
                        || bytes[i] == b'.'
                        || bytes[i] == b'e'
                        || bytes[i] == b'E'
                        || ((bytes[i] == b'+' || bytes[i] == b'-')
                            && (bytes[i - 1] == b'e' || bytes[i - 1] == b'E')))
                {
                    if bytes[i] == b'.' || bytes[i] == b'e' || bytes[i] == b'E' {
                        is_fp = true;
                    }
                    i += 1;
                }
            }
            // Type suffixes: f, F, l, L, u, U, ll, ull ...
            while i < n && matches!(bytes[i], b'f' | b'F' | b'l' | b'L' | b'u' | b'U') {
                if bytes[i] == b'f' || bytes[i] == b'F' {
                    is_fp = true;
                }
                i += 1;
            }
            let kind = if is_fp { TokenKind::FpLit } else { TokenKind::IntLit };
            f(kind, &src[start..i]);
            continue;
        }
        // Multi-character punctuation (maximal munch; all entries ASCII).
        let mut matched = false;
        for p in MULTI_PUNCT {
            if src[i..].starts_with(p) {
                f(TokenKind::Punct, &src[i..i + p.len()]);
                i += p.len();
                matched = true;
                break;
            }
        }
        if matched {
            continue;
        }
        f(TokenKind::Punct, &src[i..i + 1]);
        i += 1;
    }
}

/// Tokenize C-like source text into an owned token list (see
/// [`scan_tokens`] for the allocation-free streaming form).
pub fn tokenize(src: &str) -> Vec<Token> {
    let mut tokens = Vec::new();
    scan_tokens(src, |kind, text| tokens.push(Token::new(kind, text)));
    tokens
}

/// Convenience: only the token texts, useful for n-gram metrics.
pub fn token_texts(src: &str) -> Vec<String> {
    let mut texts = Vec::new();
    scan_tokens(src, |_, text| texts.push(text.to_string()));
    texts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_simple_statement() {
        let toks = tokenize("double t0 = x * 2.0;");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["double", "t0", "=", "x", "*", "2.0", ";"]);
        assert_eq!(toks[0].kind, TokenKind::Keyword);
        assert_eq!(toks[1].kind, TokenKind::Ident);
        assert_eq!(toks[5].kind, TokenKind::FpLit);
    }

    #[test]
    fn skips_comments_whitespace_and_preprocessor() {
        let src = "#include <math.h>\n// comment\n/* block\ncomment */ int x = 1;";
        let texts = token_texts(src);
        assert_eq!(texts, vec!["int", "x", "=", "1", ";"]);
    }

    #[test]
    fn hex_float_literals_are_single_fp_tokens() {
        let toks = tokenize("comp += 0x1.8p+1;");
        let fp: Vec<&Token> = toks.iter().filter(|t| t.kind == TokenKind::FpLit).collect();
        assert_eq!(fp.len(), 1);
        assert_eq!(fp[0].text, "0x1.8p+1");
    }

    #[test]
    fn scientific_notation_and_suffixes() {
        let toks = tokenize("float y = 1.5e-3f; long long u = 10ull;");
        let fp: Vec<&str> =
            toks.iter().filter(|t| t.kind == TokenKind::FpLit).map(|t| t.text.as_str()).collect();
        assert_eq!(fp, vec!["1.5e-3f"]);
        let ints: Vec<&str> =
            toks.iter().filter(|t| t.kind == TokenKind::IntLit).map(|t| t.text.as_str()).collect();
        assert_eq!(ints, vec!["10ull"]);
    }

    #[test]
    fn multi_char_punctuation_uses_maximal_munch() {
        let texts = token_texts("i <= n; comp += 1.0; ++i; a == b; kernel<<<1, 1>>>(x);");
        assert!(texts.contains(&"<=".to_string()));
        assert!(texts.contains(&"+=".to_string()));
        assert!(texts.contains(&"++".to_string()));
        assert!(texts.contains(&"==".to_string()));
        assert!(texts.contains(&"<<<".to_string()));
        assert!(texts.contains(&">>>".to_string()));
    }

    #[test]
    fn string_literals_are_preserved() {
        let toks = tokenize(r#"printf("%016llx\n", bits);"#);
        assert!(toks.iter().any(|t| t.kind == TokenKind::StrLit && t.text.contains("llx")));
    }

    #[test]
    fn whitespace_variations_produce_identical_streams() {
        let a = token_texts("comp = a+b ;");
        let b = token_texts("comp   =\n a + b;");
        assert_eq!(a, b);
    }

    #[test]
    fn tokenizer_never_panics_on_garbage() {
        let texts = token_texts("@ $ ` 〇 \u{1F600} |||");
        assert!(!texts.is_empty());
    }
}
