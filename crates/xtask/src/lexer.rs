//! A minimal Rust lexer: just enough to separate identifiers,
//! punctuation and comments from string/char literal noise, with line
//! numbers.
//!
//! The lint passes only need to answer questions like "does the token
//! `ctx_begin` followed by `(` appear outside test code?" — so the lexer
//! does not classify keywords, numbers or operators precisely. It does
//! handle the parts that would otherwise produce false positives:
//! line and (nested) block comments, string literals, raw strings,
//! byte strings, char literals vs. lifetimes, and raw identifiers.
//!
//! String-literal tokens additionally carry their inner content in
//! [`Token::literal`]: the span/fault passes need to read kind strings
//! (`"scrub.verify"`) and site labels out of otherwise-opaque literals
//! without ever letting that content match token-level rule patterns.

/// One significant token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token text. Identifiers keep their name; every punctuation
    /// character is its own one-char token; literals collapse to `"&str"`
    /// / `'c'` placeholders so rule patterns can never match inside them.
    pub text: String,
    /// 1-based source line the token *starts* on (multi-line strings
    /// are stamped with their opening quote's line).
    pub line: u32,
    /// For string-literal tokens only: the literal's inner content,
    /// with the common escapes (`\"`, `\\`, `\n`, `\r`, `\t`, `\0`)
    /// resolved; raw strings are carried verbatim. `None` for every
    /// other token.
    pub literal: Option<String>,
}

impl Token {
    fn plain(text: impl Into<String>, line: u32) -> Token {
        Token {
            text: text.into(),
            line,
            literal: None,
        }
    }
}

/// A comment, kept separately for waiver detection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// Comment text without the `//` / `/*` markers, trimmed.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
}

/// Lexer output: significant tokens plus the comments.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

/// Tokenizes `src`. Never fails: unterminated constructs simply consume
/// the rest of the input (the compiler is the authority on syntax — the
/// linter only runs on code that already builds).
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    let n = b.len();
    while i < n {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => {
                i += 1;
            }
            '/' if i + 1 < n && b[i + 1] == '/' => {
                let start = i + 2;
                let mut j = start;
                while j < n && b[j] != '\n' {
                    j += 1;
                }
                let text: String = b[start..j].iter().collect();
                out.comments.push(Comment {
                    text: text.trim_start_matches(['/', '!']).trim().to_string(),
                    line,
                });
                i = j;
            }
            '/' if i + 1 < n && b[i + 1] == '*' => {
                let start_line = line;
                let start = i + 2;
                let mut depth = 1;
                let mut j = start;
                while j < n && depth > 0 {
                    if b[j] == '\n' {
                        line += 1;
                        j += 1;
                    } else if b[j] == '/' && j + 1 < n && b[j + 1] == '*' {
                        depth += 1;
                        j += 2;
                    } else if b[j] == '*' && j + 1 < n && b[j + 1] == '/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                let end = j.saturating_sub(2).max(start);
                let text: String = b[start..end].iter().collect();
                out.comments.push(Comment {
                    text: text.trim_start_matches(['*', '!']).trim().to_string(),
                    line: start_line,
                });
                i = j;
            }
            '"' => {
                let tok_line = line;
                let (end, content) = scan_plain_string(&b, i, &mut line);
                i = end;
                out.tokens.push(Token {
                    text: "\"&str\"".into(),
                    line: tok_line,
                    literal: Some(content),
                });
            }
            'r' | 'b' if is_raw_or_byte_string(&b, i) => {
                let tok_line = line;
                match scan_raw_or_byte(&b, i, &mut line) {
                    RawScan::Str { end, content } => {
                        i = end;
                        out.tokens.push(Token {
                            text: "\"&str\"".into(),
                            line: tok_line,
                            literal: Some(content),
                        });
                    }
                    RawScan::ByteChar { end } => {
                        i = end;
                        out.tokens.push(Token::plain("'c'", tok_line));
                    }
                }
            }
            '\'' => {
                // Lifetime (`'a`) or char literal (`'a'`, `'\n'`)?
                if is_lifetime(&b, i) {
                    let mut j = i + 1;
                    while j < n && (b[j].is_alphanumeric() || b[j] == '_') {
                        j += 1;
                    }
                    out.tokens
                        .push(Token::plain(b[i..j].iter().collect::<String>(), line));
                    i = j;
                } else {
                    i = skip_char_literal(&b, i);
                    out.tokens.push(Token::plain("'c'", line));
                }
            }
            c if c.is_alphanumeric() || c == '_' => {
                let mut j = i;
                while j < n && (b[j].is_alphanumeric() || b[j] == '_') {
                    j += 1;
                }
                let mut text: String = b[i..j].iter().collect();
                // Raw identifiers: `r#match` lexes as `r` `#` `match`
                // otherwise; fold the prefix in.
                if text == "r"
                    && j + 1 < n
                    && b[j] == '#'
                    && (b[j + 1].is_alphabetic() || b[j + 1] == '_')
                {
                    let mut k = j + 1;
                    while k < n && (b[k].is_alphanumeric() || b[k] == '_') {
                        k += 1;
                    }
                    text = b[j + 1..k].iter().collect();
                    j = k;
                }
                out.tokens.push(Token::plain(text, line));
                i = j;
            }
            _ => {
                out.tokens.push(Token::plain(c.to_string(), line));
                i += 1;
            }
        }
    }
    out
}

/// Scans the `"..."` string starting at `i`; returns the past-the-end
/// index and the content with common escapes resolved.
fn scan_plain_string(b: &[char], i: usize, line: &mut u32) -> (usize, String) {
    let mut content = String::new();
    let mut j = i + 1;
    while j < b.len() {
        match b[j] {
            '\\' => {
                if j + 1 < b.len() {
                    content.push(unescape(b[j + 1]));
                    if b[j + 1] == '\n' {
                        *line += 1;
                    }
                }
                j += 2;
            }
            '\n' => {
                *line += 1;
                content.push('\n');
                j += 1;
            }
            '"' => return (j + 1, content),
            c => {
                content.push(c);
                j += 1;
            }
        }
    }
    (j, content)
}

fn unescape(c: char) -> char {
    match c {
        'n' => '\n',
        'r' => '\r',
        't' => '\t',
        '0' => '\0',
        other => other, // `\"`, `\\`, `\'` and anything exotic: keep as-is
    }
}

/// Is the `r`/`b` at `i` the start of a raw/byte string (`r"`, `r#"`,
/// `b"`, `br"` variants) or a byte char (`b'x'`)?
fn is_raw_or_byte_string(b: &[char], i: usize) -> bool {
    let mut j = i;
    // Up to two prefix letters out of {r, b}.
    let mut letters = 0;
    while j < b.len() && (b[j] == 'r' || b[j] == 'b') && letters < 2 {
        j += 1;
        letters += 1;
    }
    // Then optional hashes (raw only) and a quote.
    let hashed = j < b.len() && b[j] == '#';
    while j < b.len() && b[j] == '#' {
        j += 1;
    }
    let quote = j < b.len() && b[j] == '"';
    // `b'x'` byte char also counts as a literal to skip.
    let byte_char = letters == 1 && b[i] == 'b' && j < b.len() && b[j] == '\'';
    quote && (hashed || letters > 0) || byte_char
}

/// Outcome of scanning a raw/byte string or byte char at `i`.
enum RawScan {
    /// A (raw/byte) string literal with its inner content.
    Str { end: usize, content: String },
    /// A `b'x'` byte char (reported as a char token, not a string).
    ByteChar { end: usize },
}

/// Scans the raw/byte string (or byte char) at `i`.
fn scan_raw_or_byte(b: &[char], i: usize, line: &mut u32) -> RawScan {
    let mut j = i;
    while j < b.len() && (b[j] == 'r' || b[j] == 'b') {
        j += 1;
    }
    let mut hashes = 0;
    while j < b.len() && b[j] == '#' {
        hashes += 1;
        j += 1;
    }
    if j < b.len() && b[j] == '\'' {
        return RawScan::ByteChar {
            end: skip_char_literal(b, j),
        };
    }
    if j >= b.len() || b[j] != '"' {
        return RawScan::Str {
            end: j,
            content: String::new(),
        };
    }
    j += 1; // opening quote
            // Raw strings (`r...`, any hashed form) take no escapes; a plain
            // `b"..."` byte string does.
    let raw = hashes > 0 || b[i] == 'r' || (i + 1 < b.len() && b[i] == 'b' && b[i + 1] == 'r');
    let mut content = String::new();
    while j < b.len() {
        match b[j] {
            '\n' => {
                *line += 1;
                content.push('\n');
                j += 1;
            }
            '\\' if !raw => {
                if j + 1 < b.len() {
                    content.push(unescape(b[j + 1]));
                    if b[j + 1] == '\n' {
                        *line += 1;
                    }
                }
                j += 2;
            }
            '"' => {
                let mut k = j + 1;
                let mut seen = 0;
                while k < b.len() && b[k] == '#' && seen < hashes {
                    k += 1;
                    seen += 1;
                }
                if seen == hashes {
                    return RawScan::Str { end: k, content };
                }
                content.push('"');
                j += 1;
            }
            c => {
                content.push(c);
                j += 1;
            }
        }
    }
    RawScan::Str { end: j, content }
}

/// Is the `'` at `i` a lifetime rather than a char literal?
fn is_lifetime(b: &[char], i: usize) -> bool {
    let Some(&c1) = b.get(i + 1) else {
        return false;
    };
    if !(c1.is_alphabetic() || c1 == '_') {
        return false; // `'\n'`, `'('` etc. are char literals
    }
    // `'a'` is a char literal; `'a,`/`'a>`/`'a ` are lifetimes.
    // Multi-char like `'static` is always a lifetime.
    b.get(i + 2) != Some(&'\'')
}

/// Past-the-end index of the char literal at `i`.
fn skip_char_literal(b: &[char], i: usize) -> usize {
    let mut j = i + 1;
    if j < b.len() && b[j] == '\'' {
        // `b''`? malformed; step past.
        return j + 1;
    }
    while j < b.len() {
        match b[j] {
            '\\' => j += 2,
            '\'' => return j + 1,
            '\n' => return j, // malformed; bail at line end
            _ => j += 1,
        }
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().map(|t| t.text).collect()
    }

    fn literals(src: &str) -> Vec<Option<String>> {
        lex(src).tokens.into_iter().map(|t| t.literal).collect()
    }

    #[test]
    fn idents_and_punct() {
        assert_eq!(
            texts("foo.unwrap();"),
            vec!["foo", ".", "unwrap", "(", ")", ";"]
        );
    }

    #[test]
    fn strings_do_not_leak_tokens() {
        assert_eq!(
            texts(r#"let s = "HashMap.unwrap()";"#),
            vec!["let", "s", "=", "\"&str\"", ";"]
        );
        assert_eq!(
            texts(r###"let s = r#"panic!("x")"#;"###),
            vec!["let", "s", "=", "\"&str\"", ";"]
        );
        assert_eq!(
            texts(r#"let b = b"unwrap";"#),
            vec!["let", "b", "=", "\"&str\"", ";"]
        );
    }

    #[test]
    fn string_tokens_carry_content() {
        let lits = literals(r#"t.tick(TraceLayer::Cache, "writeback.fail");"#);
        assert!(lits.contains(&Some("writeback.fail".to_string())));
        // Raw strings carry their content verbatim, escapes untouched.
        let lits = literals(r##"let s = r#"a\n"b""#;"##);
        assert_eq!(lits.last().cloned().flatten(), None); // `;` is last
        assert!(lits.contains(&Some("a\\n\"b\"".to_string())));
        // Plain strings resolve the common escapes.
        let lits = literals(r#"let s = "a\n\"b\"";"#);
        assert!(lits.contains(&Some("a\n\"b\"".to_string())));
    }

    #[test]
    fn chars_and_lifetimes() {
        assert_eq!(
            texts("fn f<'a>(x: &'a str) { let c = 'x'; let e = '\\n'; }"),
            vec![
                "fn", "f", "<", "'a", ">", "(", "x", ":", "&", "'a", "str", ")", "{", "let", "c",
                "=", "'c'", ";", "let", "e", "=", "'c'", ";", "}"
            ]
        );
    }

    #[test]
    fn byte_char_is_a_char_not_a_string() {
        // Regression: `b'"'` used to lex as a string placeholder; the
        // quote inside must not open a string either.
        assert_eq!(
            texts("let x = b'\"'; let y = foo();"),
            vec!["let", "x", "=", "'c'", ";", "let", "y", "=", "foo", "(", ")", ";"]
        );
    }

    #[test]
    fn comments_are_captured_not_tokenized() {
        let l = lex("let x = 1; // lint: allow(S1): x\n/* unwrap() */ let y = 2;");
        let toks: Vec<&str> = l.tokens.iter().map(|t| t.text.as_str()).collect();
        assert!(!toks.contains(&"unwrap"));
        assert_eq!(l.comments.len(), 2);
        assert_eq!(l.comments[0].text, "lint: allow(S1): x");
        assert_eq!(l.comments[0].line, 1);
        assert_eq!(l.comments[1].text, "unwrap()");
        assert_eq!(l.comments[1].line, 2);
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* a /* b */ c */ token");
        assert_eq!(l.tokens.len(), 1);
        assert_eq!(l.tokens[0].text, "token");
    }

    #[test]
    fn deeply_nested_comment_hides_rule_tokens() {
        assert_eq!(
            texts("/* outer /* HashMap unwrap() /* deeper */ */ Instant::now() */ let x = 1;"),
            vec!["let", "x", "=", "1", ";"]
        );
    }

    #[test]
    fn line_numbers_track_newlines() {
        let l = lex("a\nb\n\"multi\nline\"\nc");
        let lines: Vec<(String, u32)> = l.tokens.into_iter().map(|t| (t.text, t.line)).collect();
        assert_eq!(lines[0], ("a".into(), 1));
        assert_eq!(lines[1], ("b".into(), 2));
        // Regression: the string token is stamped with its *opening*
        // line (it used to get the closing line).
        assert_eq!(lines[2], ("\"&str\"".into(), 3));
        assert_eq!(lines[3], ("c".into(), 5));
    }

    #[test]
    fn raw_string_line_numbers_track_newlines() {
        let l = lex("a\nr#\"x\ny\"#\nb");
        let lines: Vec<(String, u32)> = l.tokens.into_iter().map(|t| (t.text, t.line)).collect();
        assert_eq!(lines[1], ("\"&str\"".into(), 2));
        assert_eq!(lines[2], ("b".into(), 4));
    }

    #[test]
    fn raw_string_hash_imbalance_does_not_bleed() {
        // `"#` inside an r##-string must not close it; the tail after
        // the real terminator lexes normally.
        assert_eq!(
            texts("let s = r##\"a \"# b unwrap()\"##; done();"),
            vec!["let", "s", "=", "\"&str\"", ";", "done", "(", ")", ";"]
        );
    }

    #[test]
    fn raw_identifiers_fold() {
        assert_eq!(texts("let r#type = 1;"), vec!["let", "type", "=", "1", ";"]);
    }
}
