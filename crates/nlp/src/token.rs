//! Offset-preserving tokenizer with IOC protection.
//!
//! Two entry points:
//!
//! - [`tokenize`] — plain tokenizer; splits words, numbers and punctuation.
//! - [`tokenize_protected`] — the paper's IOC-protection pipeline: IOC spans
//!   (found by [`crate::IocMatcher`]) each become a *single* token of kind
//!   [`TokenKind::Ioc`], and only the gaps between them are tokenized
//!   normally. This realises "replacing IOCs with meaningful words ... and
//!   restoring them after the tokenization procedure" without the string
//!   substitution round-trip: the guarantee the paper needs is exactly that
//!   "potential entities are complete tokens", which holds by construction.
//!
//! [`protect_text`] implements the literal placeholder substitution too, for
//! components (like the sentence segmenter ablation in E3) that need a plain
//! string with IOCs masked.

use crate::ioc::IocMatcher;
use kg_ontology::EntityKind;
use serde::{Deserialize, Serialize};

/// The lexical class of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TokenKind {
    /// Alphabetic word (may contain interior hyphens/apostrophes).
    Word,
    /// Number (digits, possibly with interior dots/commas).
    Number,
    /// Single punctuation character.
    Punct,
    /// A protected IOC span; carries its detected kind.
    Ioc(EntityKind),
}

/// One token with byte offsets into the original text.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Token {
    pub text: String,
    pub start: usize,
    pub end: usize,
    pub kind: TokenKind,
}

impl Token {
    /// Whether this token is a protected IOC.
    pub fn is_ioc(&self) -> bool {
        matches!(self.kind, TokenKind::Ioc(_))
    }
}

/// Plain tokenizer. Word chars glue with interior `-` and `'`; digit runs
/// glue with interior `.` and `,` only when flanked by digits; everything
/// else is single-char punctuation. Offsets are byte offsets into `text`.
pub fn tokenize(text: &str) -> Vec<Token> {
    let mut tokens = Vec::new();
    tokenize_range(text, 0, text.len(), &mut tokens);
    tokens
}

/// Append the tokens of `text[from..to]` to `tokens`.
fn tokenize_range(text: &str, from: usize, to: usize, tokens: &mut Vec<Token>) {
    let s = &text[from..to];
    let mut iter = s.char_indices().peekable();
    while let Some((i, c)) = iter.next() {
        let abs = from + i;
        if c.is_whitespace() {
            continue;
        }
        if c.is_alphabetic() || c == '_' {
            // Word token: letters, digits, interior - ' _
            let mut end = abs + c.len_utf8();
            while let Some(&(j, cj)) = iter.peek() {
                let abs_j = from + j;
                let glue = cj.is_alphanumeric()
                    || cj == '_'
                    || ((cj == '-' || cj == '\'')
                        && next_char_is_alnum(text, abs_j + cj.len_utf8(), to));
                if glue {
                    end = abs_j + cj.len_utf8();
                    iter.next();
                } else {
                    break;
                }
            }
            tokens.push(Token {
                text: text[abs..end].to_owned(),
                start: abs,
                end,
                kind: TokenKind::Word,
            });
        } else if c.is_ascii_digit() {
            // Number token: digits, interior . , : when flanked by digits.
            let mut end = abs + 1;
            while let Some(&(j, cj)) = iter.peek() {
                let abs_j = from + j;
                let glue = cj.is_ascii_digit()
                    || ((cj == '.' || cj == ',' || cj == ':')
                        && next_char_is_digit(text, abs_j + cj.len_utf8(), to));
                if glue {
                    end = abs_j + cj.len_utf8();
                    iter.next();
                } else {
                    break;
                }
            }
            tokens.push(Token {
                text: text[abs..end].to_owned(),
                start: abs,
                end,
                kind: TokenKind::Number,
            });
        } else {
            tokens.push(Token {
                text: c.to_string(),
                start: abs,
                end: abs + c.len_utf8(),
                kind: TokenKind::Punct,
            });
        }
    }
}

fn next_char_is_alnum(text: &str, at: usize, to: usize) -> bool {
    at < to
        && text[at..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric())
}

fn next_char_is_digit(text: &str, at: usize, to: usize) -> bool {
    at < to
        && text[at..]
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_digit())
}

/// Tokenize with IOC protection: IOC spans become single [`TokenKind::Ioc`]
/// tokens; gaps are tokenized with [`tokenize`]. The result is ordered by
/// offset and non-overlapping.
pub fn tokenize_protected(text: &str, matcher: &IocMatcher) -> Vec<Token> {
    let spans = matcher.find_all(text);
    let mut tokens = Vec::new();
    let mut cursor = 0usize;
    for span in spans {
        if span.start > cursor {
            tokenize_range(text, cursor, span.start, &mut tokens);
        }
        tokens.push(Token {
            text: span.text,
            start: span.start,
            end: span.end,
            kind: TokenKind::Ioc(span.kind),
        });
        cursor = span.end;
    }
    if cursor < text.len() {
        tokenize_range(text, cursor, text.len(), &mut tokens);
    }
    tokens
}

/// The literal placeholder substitution the paper describes: every IOC is
/// replaced by the word `something`, and a restoration table maps placeholder
/// occurrences (in order) back to the original IOC texts.
pub fn protect_text(text: &str, matcher: &IocMatcher) -> (String, Vec<String>) {
    let spans = matcher.find_all(text);
    let mut out = String::with_capacity(text.len());
    let mut originals = Vec::with_capacity(spans.len());
    let mut cursor = 0usize;
    for span in &spans {
        out.push_str(&text[cursor..span.start]);
        out.push_str("something");
        originals.push(span.text.clone());
        cursor = span.end;
    }
    out.push_str(&text[cursor..]);
    (out, originals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_numbers_punct() {
        let toks = tokenize("Attackers used 2 well-known tools, quickly.");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            texts,
            vec![
                "Attackers",
                "used",
                "2",
                "well-known",
                "tools",
                ",",
                "quickly",
                "."
            ]
        );
        assert_eq!(toks[2].kind, TokenKind::Number);
        assert_eq!(toks[3].kind, TokenKind::Word);
        assert_eq!(toks[5].kind, TokenKind::Punct);
    }

    #[test]
    fn offsets_reconstruct_text() {
        let text = "Emotet, again!";
        for t in tokenize(text) {
            assert_eq!(&text[t.start..t.end], t.text);
        }
    }

    #[test]
    fn trailing_hyphen_is_punct() {
        let texts: Vec<String> = tokenize("on-going attack -")
            .into_iter()
            .map(|t| t.text)
            .collect();
        assert_eq!(texts, vec!["on-going", "attack", "-"]);
    }

    #[test]
    fn protected_tokenization_keeps_iocs_whole() {
        let m = IocMatcher::standard();
        let toks = tokenize_protected("wannacry dropped C:\\Windows\\mssecsvc.exe today.", &m);
        let ioc: Vec<&Token> = toks.iter().filter(|t| t.is_ioc()).collect();
        assert_eq!(ioc.len(), 1);
        assert_eq!(ioc[0].text, "C:\\Windows\\mssecsvc.exe");
        // Gap tokens are ordinary words.
        assert!(toks
            .iter()
            .any(|t| t.text == "wannacry" && t.kind == TokenKind::Word));
        // Offsets still index the original string.
        let text = "wannacry dropped C:\\Windows\\mssecsvc.exe today.";
        for t in &toks {
            assert_eq!(&text[t.start..t.end], t.text);
        }
    }

    #[test]
    fn protect_text_substitutes_and_records() {
        let m = IocMatcher::standard();
        let (masked, originals) = protect_text("beacon to 10.0.0.1 and drop x.exe", &m);
        assert_eq!(masked, "beacon to something and drop something");
        assert_eq!(originals, vec!["10.0.0.1".to_owned(), "x.exe".to_owned()]);
    }

    #[test]
    fn unicode_text_does_not_panic() {
        let m = IocMatcher::standard();
        let text = "Le malware — wannacry – s'étend vite à 10.0.0.1.";
        let toks = tokenize_protected(text, &m);
        for t in &toks {
            assert_eq!(&text[t.start..t.end], t.text);
        }
        assert!(toks.iter().any(|t| t.text == "10.0.0.1"));
    }
}
