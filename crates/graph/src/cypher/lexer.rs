//! Cypher tokenizer.

use super::CypherError;
use std::borrow::Cow;

/// Lexical tokens. Identifiers, parameters and escape-free strings borrow
/// the query text, so lexing and parsing copy only what the AST keeps.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok<'a> {
    Ident(&'a str),
    Str(Cow<'a, str>),
    Int(i64),
    Float(f64),
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Colon,
    Comma,
    Dot,
    Dash,
    Arrow,     // ->
    BackArrow, // <-
    Eq,
    Ne, // <>
    Lt,
    Le,
    Gt,
    Ge,
    Star,
    /// `$name` — a query parameter reference.
    Param(&'a str),
}

/// Tokenize a query string. Identifiers keep their case; keyword matching is
/// done case-insensitively by the parser.
pub fn lex(text: &str) -> Result<Vec<Tok<'_>>, CypherError> {
    // About one token per four bytes of query text, so one allocation.
    let mut out = Vec::with_capacity(text.len() / 4 + 4);
    let bytes = text.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = text[i..].chars().next().unwrap();
        match c {
            c if c.is_whitespace() => i += c.len_utf8(),
            '(' => {
                out.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                out.push(Tok::RParen);
                i += 1;
            }
            '[' => {
                out.push(Tok::LBracket);
                i += 1;
            }
            ']' => {
                out.push(Tok::RBracket);
                i += 1;
            }
            '{' => {
                out.push(Tok::LBrace);
                i += 1;
            }
            '}' => {
                out.push(Tok::RBrace);
                i += 1;
            }
            ':' => {
                out.push(Tok::Colon);
                i += 1;
            }
            ',' => {
                out.push(Tok::Comma);
                i += 1;
            }
            '.' => {
                out.push(Tok::Dot);
                i += 1;
            }
            '*' => {
                out.push(Tok::Star);
                i += 1;
            }
            '=' => {
                out.push(Tok::Eq);
                i += 1;
            }
            '-' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    out.push(Tok::Arrow);
                    i += 2;
                } else {
                    out.push(Tok::Dash);
                    i += 1;
                }
            }
            '<' => match bytes.get(i + 1) {
                Some(&b'-') => {
                    out.push(Tok::BackArrow);
                    i += 2;
                }
                Some(&b'>') => {
                    out.push(Tok::Ne);
                    i += 2;
                }
                Some(&b'=') => {
                    out.push(Tok::Le);
                    i += 2;
                }
                _ => {
                    out.push(Tok::Lt);
                    i += 1;
                }
            },
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Tok::Ge);
                    i += 2;
                } else {
                    out.push(Tok::Gt);
                    i += 1;
                }
            }
            '"' | '\'' => {
                let quote = c;
                let start = i + 1;
                let mut j = start;
                // Unescaped text is only built once an escape shows up.
                let mut owned: Option<String> = None;
                loop {
                    if j >= bytes.len() {
                        return Err(CypherError::Lex("unterminated string".into()));
                    }
                    let cj = text[j..].chars().next().unwrap();
                    if cj == quote {
                        break;
                    }
                    if cj == '\\' && j + 1 < bytes.len() {
                        let esc = text[j + 1..].chars().next().unwrap();
                        owned
                            .get_or_insert_with(|| text[start..j].to_owned())
                            .push(match esc {
                                'n' => '\n',
                                't' => '\t',
                                other => other,
                            });
                        j += 1 + esc.len_utf8();
                        continue;
                    }
                    if let Some(s) = &mut owned {
                        s.push(cj);
                    }
                    j += cj.len_utf8();
                }
                out.push(Tok::Str(match owned {
                    Some(s) => Cow::Owned(s),
                    None => Cow::Borrowed(&text[start..j]),
                }));
                i = j + 1;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                let mut is_float = false;
                i += 1;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_digit()
                        || (bytes[i] == b'.'
                            && bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit())))
                {
                    if bytes[i] == b'.' {
                        is_float = true;
                    }
                    i += 1;
                }
                let slice = &text[start..i];
                if is_float {
                    out.push(Tok::Float(slice.parse().map_err(|_| {
                        CypherError::Lex(format!("bad float literal {slice:?}"))
                    })?));
                } else {
                    out.push(Tok::Int(slice.parse().map_err(|_| {
                        CypherError::Lex(format!("bad int literal {slice:?}"))
                    })?));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                out.push(Tok::Ident(&text[start..i]));
            }
            '$' => {
                let start = i + 1;
                i += 1;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                if i == start {
                    return Err(CypherError::Lex("expected parameter name after '$'".into()));
                }
                out.push(Tok::Param(&text[start..i]));
            }
            other => {
                return Err(CypherError::Lex(format!("unexpected character {other:?}")));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_the_demo_query() {
        let toks = lex("match (n) where n.name = \"wannacry\" return n").unwrap();
        assert_eq!(
            toks,
            vec![
                Tok::Ident("match"),
                Tok::LParen,
                Tok::Ident("n"),
                Tok::RParen,
                Tok::Ident("where"),
                Tok::Ident("n"),
                Tok::Dot,
                Tok::Ident("name"),
                Tok::Eq,
                Tok::Str("wannacry".into()),
                Tok::Ident("return"),
                Tok::Ident("n"),
            ]
        );
    }

    #[test]
    fn lexes_arrows_and_comparisons() {
        let toks = lex("-[:DROP]-> <-[r]- <> <= >= < >").unwrap();
        assert!(toks.contains(&Tok::Arrow));
        assert!(toks.contains(&Tok::BackArrow));
        assert!(toks.contains(&Tok::Ne));
        assert!(toks.contains(&Tok::Le));
        assert!(toks.contains(&Tok::Ge));
    }

    #[test]
    fn lexes_numbers_and_strings() {
        let toks = lex("42 3.25 'single' \"dou\\\"ble\"").unwrap();
        assert_eq!(
            toks,
            vec![
                Tok::Int(42),
                Tok::Float(3.25),
                Tok::Str("single".into()),
                Tok::Str("dou\"ble".into()),
            ]
        );
    }

    #[test]
    fn lexes_params() {
        let toks = lex("$who $x_1").unwrap();
        assert_eq!(toks, vec![Tok::Param("who"), Tok::Param("x_1")]);
        assert!(lex("$").is_err());
        assert!(lex("$ name").is_err());
    }

    #[test]
    fn rejects_junk() {
        assert!(lex("match (n) where n.name = \"unterminated").is_err());
        assert!(lex("§").is_err());
    }
}
