//! A lossless Rust lexer with exact line:col spans.
//!
//! The lexer turns a source file into a sequence of [`Token`]s that covers
//! *every byte* of the input: concatenating the token texts in order
//! reproduces the file exactly (the round-trip property the differential
//! tests assert). That losslessness is what makes the analyzer's spans
//! trustworthy — a rule that fires on token `i` can point at the precise
//! line and column, through raw strings, nested block comments, multi-line
//! expressions and macros, all the places a line-regex scanner mis-fires.
//!
//! The token model is deliberately shallow: identifiers and keywords share
//! [`TokenKind::Ident`] (rules match on text), punctuation is one token per
//! character (rules match sequences like `:` `:` themselves), and literals
//! keep their suffixes. What the lexer *must* get right — and what the old
//! string-stripping scanner could not — are the boundary cases:
//!
//! * raw strings (`r"…"`, `r#"…"#`, `br##"…"##`) including hash counting,
//! * byte strings and byte chars (`b"…"`, `b'x'`),
//! * nested block comments (`/* /* */ */`),
//! * lifetimes vs. char literals (`'a` vs. `'a'` vs. `'\n'`),
//! * raw identifiers (`r#match`),
//! * float vs. integer literals vs. range/field syntax (`1.0`, `1..2`, `x.0`).
//!
//! Unterminated strings/comments consume to end of input instead of
//! panicking — the analyzer must degrade gracefully on torn fixtures.

/// Classification of one source token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `unsafe`, `HashMap`, `r#match`).
    Ident,
    /// A lifetime (`'a`, `'static`) — *not* a char literal.
    Lifetime,
    /// String literal: plain (`"…"`) or byte (`b"…"`).
    Str,
    /// Raw string literal (`r"…"`, `r#"…"#`, `br#"…"#`).
    RawStr,
    /// Char literal (`'x'`, `'\n'`) or byte char (`b'x'`).
    Char,
    /// Integer literal, including base prefix and suffix (`0xFF_u32`).
    Int,
    /// Float literal (`1.0`, `2e9_f64`).
    Float,
    /// `// …` comment (doc comments included), newline excluded.
    LineComment,
    /// `/* … */` comment, nesting handled.
    BlockComment,
    /// One punctuation character (`.`, `:`, `(`, `#`, …).
    Punct,
    /// A run of whitespace (newlines included).
    Whitespace,
}

impl TokenKind {
    /// Whether this token carries code semantics (not whitespace/comment).
    pub fn is_code(self) -> bool {
        !matches!(
            self,
            TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
        )
    }
}

/// One token: kind plus an exact byte span and 1-based line:col position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// Byte offset of the first byte (inclusive).
    pub start: usize,
    /// Byte offset one past the last byte (exclusive).
    pub end: usize,
    /// 1-based source line of the first byte.
    pub line: u32,
    /// 1-based character column of the first byte within its line.
    pub col: u32,
}

impl Token {
    /// The token's text within `source` (the string it was lexed from).
    pub fn text<'s>(&self, source: &'s str) -> &'s str {
        &source[self.start..self.end]
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Character cursor over the source with line/col tracking.
struct Cursor<'s> {
    src: &'s str,
    /// `(byte_offset, char)` for every char, so lookahead is O(1).
    chars: Vec<(usize, char)>,
    /// Index into `chars` of the next unconsumed character.
    pos: usize,
    line: u32,
    col: u32,
}

impl<'s> Cursor<'s> {
    fn new(src: &'s str) -> Self {
        Cursor {
            src,
            chars: src.char_indices().collect(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).map(|&(_, c)| c)
    }

    fn byte_at(&self, idx: usize) -> usize {
        self.chars
            .get(idx)
            .map(|&(b, _)| b)
            .unwrap_or(self.src.len())
    }

    fn bump(&mut self) -> Option<char> {
        let &(_, c) = self.chars.get(self.pos)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn eat_while(&mut self, pred: impl Fn(char) -> bool) {
        while let Some(c) = self.peek(0) {
            if pred(c) {
                self.bump();
            } else {
                break;
            }
        }
    }
}

/// Lexes `source` into a lossless token stream (see module docs).
pub fn tokenize(source: &str) -> Vec<Token> {
    let mut cur = Cursor::new(source);
    let mut out = Vec::new();
    while cur.pos < cur.chars.len() {
        let start_idx = cur.pos;
        let (line, col) = (cur.line, cur.col);
        let kind = lex_one(&mut cur);
        debug_assert!(cur.pos > start_idx, "lexer must make progress");
        out.push(Token {
            kind,
            start: cur.byte_at(start_idx),
            end: cur.byte_at(cur.pos),
            line,
            col,
        });
    }
    out
}

fn lex_one(cur: &mut Cursor<'_>) -> TokenKind {
    let c = cur.peek(0).expect("lex_one called at end");

    if c.is_whitespace() {
        cur.eat_while(|c| c.is_whitespace());
        return TokenKind::Whitespace;
    }

    // Comments.
    if c == '/' {
        match cur.peek(1) {
            Some('/') => {
                cur.eat_while(|c| c != '\n');
                return TokenKind::LineComment;
            }
            Some('*') => {
                cur.bump();
                cur.bump();
                let mut depth = 1u32;
                while depth > 0 {
                    match (cur.peek(0), cur.peek(1)) {
                        (Some('/'), Some('*')) => {
                            cur.bump();
                            cur.bump();
                            depth += 1;
                        }
                        (Some('*'), Some('/')) => {
                            cur.bump();
                            cur.bump();
                            depth -= 1;
                        }
                        (Some(_), _) => {
                            cur.bump();
                        }
                        (None, _) => break, // unterminated: consume to EOF
                    }
                }
                return TokenKind::BlockComment;
            }
            _ => {}
        }
    }

    // String-ish prefixes: r"…", r#"…"#, r#ident, b"…", b'…', br#"…"#.
    if c == 'r' || c == 'b' {
        if let Some(kind) = try_lex_prefixed(cur) {
            return kind;
        }
    }

    if is_ident_start(c) {
        cur.eat_while(is_ident_continue);
        return TokenKind::Ident;
    }

    if c == '"' {
        lex_plain_string(cur);
        return TokenKind::Str;
    }

    if c == '\'' {
        return lex_quote(cur);
    }

    if c.is_ascii_digit() {
        return lex_number(cur);
    }

    // Everything else: one punctuation character per token.
    cur.bump();
    TokenKind::Punct
}

/// Handles tokens starting with `r` or `b`: raw strings, byte strings, byte
/// chars, and raw identifiers. Returns `None` if it is just an ordinary
/// identifier starting with those letters (caller lexes it).
fn try_lex_prefixed(cur: &mut Cursor<'_>) -> Option<TokenKind> {
    let c0 = cur.peek(0).unwrap();
    // Compute the shape without consuming.
    let (raw, mut look) = match (c0, cur.peek(1)) {
        ('b', Some('r')) => (true, 2),
        ('b', _) => (false, 1),
        ('r', _) => (true, 1),
        _ => return None,
    };
    let mut hashes = 0usize;
    if raw {
        while cur.peek(look) == Some('#') {
            hashes += 1;
            look += 1;
        }
    }
    match cur.peek(look) {
        Some('"') => {
            // (b)r#*"…"#* or b"…".
            for _ in 0..=look {
                cur.bump();
            }
            if raw {
                lex_raw_string_body(cur, hashes);
                Some(TokenKind::RawStr)
            } else {
                lex_string_body(cur, '"');
                Some(TokenKind::Str)
            }
        }
        Some('\'') if c0 == 'b' && !raw => {
            // b'x' byte char.
            cur.bump(); // b
            cur.bump(); // '
            lex_string_body(cur, '\'');
            Some(TokenKind::Char)
        }
        Some(ch) if c0 == 'r' && hashes == 1 && is_ident_start(ch) => {
            // Raw identifier r#match.
            cur.bump(); // r
            cur.bump(); // #
            cur.eat_while(is_ident_continue);
            Some(TokenKind::Ident)
        }
        _ => None,
    }
}

/// Consumes a raw-string body after the opening quote: ends at `"` followed
/// by `hashes` `#`s (or EOF).
fn lex_raw_string_body(cur: &mut Cursor<'_>, hashes: usize) {
    loop {
        match cur.peek(0) {
            None => return,
            Some('"') => {
                let mut all = true;
                for k in 0..hashes {
                    if cur.peek(1 + k) != Some('#') {
                        all = false;
                        break;
                    }
                }
                if all {
                    for _ in 0..=hashes {
                        cur.bump();
                    }
                    return;
                }
                cur.bump();
            }
            Some(_) => {
                cur.bump();
            }
        }
    }
}

/// Consumes an escaped-string/char body after the opening quote, up to and
/// including the closing `close` (or EOF).
fn lex_string_body(cur: &mut Cursor<'_>, close: char) {
    loop {
        match cur.peek(0) {
            None => return,
            Some('\\') => {
                cur.bump();
                cur.bump(); // the escaped char (may be None at EOF; bump is safe)
            }
            Some(c) => {
                cur.bump();
                if c == close {
                    return;
                }
            }
        }
    }
}

/// Consumes the plain string starting at `"`.
fn lex_plain_string(cur: &mut Cursor<'_>) {
    cur.bump(); // opening quote
    lex_string_body(cur, '"');
}

/// Disambiguates `'` into a char literal or a lifetime.
fn lex_quote(cur: &mut Cursor<'_>) -> TokenKind {
    // Escaped char: always a literal.
    if cur.peek(1) == Some('\\') {
        cur.bump();
        lex_string_body(cur, '\'');
        return TokenKind::Char;
    }
    // `'X'` where X is any single char: a literal (covers `'a'` even though
    // `a` is also an identifier start).
    if cur.peek(2) == Some('\'') && cur.peek(1) != Some('\'') {
        cur.bump();
        cur.bump();
        cur.bump();
        return TokenKind::Char;
    }
    // `'ident` (not followed by a closing quote): a lifetime.
    if cur.peek(1).map(is_ident_start) == Some(true) {
        cur.bump();
        cur.eat_while(is_ident_continue);
        return TokenKind::Lifetime;
    }
    // A lone `'` (malformed source): punctuation, keep going.
    cur.bump();
    TokenKind::Punct
}

/// Consumes a numeric literal starting at an ASCII digit.
fn lex_number(cur: &mut Cursor<'_>) -> TokenKind {
    let mut float = false;
    // Base prefix?
    if cur.peek(0) == Some('0')
        && matches!(cur.peek(1), Some('x') | Some('X') | Some('o') | Some('b'))
    {
        cur.bump();
        cur.bump();
        cur.eat_while(|c| c.is_ascii_hexdigit() || c == '_');
    } else {
        cur.eat_while(|c| c.is_ascii_digit() || c == '_');
        // Fractional part: `.` followed by a digit (so `1..2` and `x.0e`
        // stay ranges/field accesses), or a trailing `1.` not followed by
        // an identifier or another dot.
        if cur.peek(0) == Some('.') {
            match cur.peek(1) {
                Some(d) if d.is_ascii_digit() => {
                    float = true;
                    cur.bump();
                    cur.eat_while(|c| c.is_ascii_digit() || c == '_');
                }
                Some('.') => {}                      // range `1..`
                Some(c2) if is_ident_start(c2) => {} // method `1.max(..)`
                _ => {
                    float = true; // trailing `1.`
                    cur.bump();
                }
            }
        }
        // Exponent.
        if matches!(cur.peek(0), Some('e') | Some('E')) {
            let sign = matches!(cur.peek(1), Some('+') | Some('-'));
            let digit_at = if sign { 2 } else { 1 };
            if cur.peek(digit_at).map(|c| c.is_ascii_digit()) == Some(true) {
                float = true;
                cur.bump();
                if sign {
                    cur.bump();
                }
                cur.eat_while(|c| c.is_ascii_digit() || c == '_');
            }
        }
    }
    // Suffix (`u32`, `f64`, …) glues onto the literal token.
    if cur.peek(0).map(is_ident_start) == Some(true) {
        let suffix_start = cur.pos;
        cur.eat_while(is_ident_continue);
        let sfx: String = cur.chars[suffix_start..cur.pos]
            .iter()
            .map(|&(_, c)| c)
            .collect();
        if sfx == "f32" || sfx == "f64" {
            float = true;
        }
    }
    if float {
        TokenKind::Float
    } else {
        TokenKind::Int
    }
}

// Blanks `text` into `out` byte-for-byte (newlines kept), so masked byte
// offsets line up exactly with the original even for multi-byte chars.
fn blank_bytes(out: &mut String, text: &str) {
    for c in text.chars() {
        if c == '\n' {
            out.push('\n');
        } else {
            for _ in 0..c.len_utf8() {
                out.push(' ');
            }
        }
    }
}

/// Returns a view of `source` with comment and string-literal *contents*
/// blanked out (quotes and comment markers kept, newlines preserved), built
/// from the token stream. Byte layout is preserved, so line numbers in the
/// masked text match the original.
pub fn mask_noncode(source: &str) -> String {
    let mut out = String::with_capacity(source.len());
    for tok in tokenize(source) {
        let text = tok.text(source);
        match tok.kind {
            TokenKind::Str | TokenKind::RawStr | TokenKind::Char => {
                // Keep the delimiters (prefix + quotes/hashes) so the masked
                // text still lexes; blank the body.
                let quote = if tok.kind == TokenKind::Char {
                    '\''
                } else {
                    '"'
                };
                let open = text
                    .char_indices()
                    .find(|&(_, c)| c == quote)
                    .map(|(i, _)| i + 1)
                    .unwrap_or(text.len());
                // Closing delimiter: trailing hashes (raw strings) plus the
                // quote, when the literal is actually terminated.
                let trailing_hashes = text.bytes().rev().take_while(|&b| b == b'#').count();
                let before_hashes = text.len() - trailing_hashes;
                let close =
                    if before_hashes > open && text.as_bytes()[before_hashes - 1] == quote as u8 {
                        before_hashes - 1
                    } else {
                        text.len() // unterminated: no closing delimiter to keep
                    };
                out.push_str(&text[..open]);
                blank_bytes(&mut out, &text[open..close]);
                out.push_str(&text[close..]);
            }
            TokenKind::LineComment | TokenKind::BlockComment => {
                blank_bytes(&mut out, text);
            }
            _ => out.push_str(text),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        tokenize(src)
            .iter()
            .filter(|t| t.kind != TokenKind::Whitespace)
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    fn roundtrip(src: &str) {
        let joined: String = tokenize(src).iter().map(|t| t.text(src)).collect();
        assert_eq!(joined, src, "lossless round-trip");
    }

    #[test]
    fn basic_tokens() {
        let ts = kinds("fn f(x: u64) -> u64 { x + 1 }");
        assert_eq!(ts[0], (TokenKind::Ident, "fn".into()));
        assert_eq!(ts[1], (TokenKind::Ident, "f".into()));
        assert!(ts.iter().any(|t| t.0 == TokenKind::Int && t.1 == "1"));
        roundtrip("fn f(x: u64) -> u64 { x + 1 }");
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = r####"let s = r#"inner "quoted" text"#; let t = r"x";"####;
        let ts = kinds(src);
        assert!(ts
            .iter()
            .any(|t| t.0 == TokenKind::RawStr && t.1.starts_with("r#\"")));
        assert!(ts
            .iter()
            .any(|t| t.0 == TokenKind::RawStr && t.1 == "r\"x\""));
        roundtrip(src);
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let src = "let a = b\"bytes\"; let b2 = br#\"raw\"#; let c = b'x';";
        let ts = kinds(src);
        assert!(ts
            .iter()
            .any(|t| t.0 == TokenKind::Str && t.1.starts_with("b\"")));
        assert!(ts
            .iter()
            .any(|t| t.0 == TokenKind::RawStr && t.1.starts_with("br#")));
        assert!(ts.iter().any(|t| t.0 == TokenKind::Char && t.1 == "b'x'"));
        roundtrip(src);
    }

    #[test]
    fn nested_block_comments() {
        let src = "a /* outer /* inner */ still outer */ b";
        let ts = kinds(src);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts[1].0, TokenKind::BlockComment);
        roundtrip(src);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }";
        let ts = kinds(src);
        assert!(ts.iter().any(|t| t.0 == TokenKind::Lifetime && t.1 == "'a"));
        assert!(ts.iter().any(|t| t.0 == TokenKind::Char && t.1 == "'x'"));
        assert!(ts.iter().any(|t| t.0 == TokenKind::Char && t.1 == "'\\n'"));
        roundtrip(src);
    }

    #[test]
    fn raw_identifiers() {
        let src = "let r#match = 1;";
        let ts = kinds(src);
        assert!(ts
            .iter()
            .any(|t| t.0 == TokenKind::Ident && t.1 == "r#match"));
        roundtrip(src);
    }

    #[test]
    fn numbers_floats_ranges_fields() {
        let src =
            "let a = 1.0; let b = 1..2; let c = x.0; let d = 0xFF_u32; let e = 2e9; let f = 3f64;";
        let ts = kinds(src);
        assert!(ts.iter().any(|t| t.0 == TokenKind::Float && t.1 == "1.0"));
        assert!(ts.iter().any(|t| t.0 == TokenKind::Int && t.1 == "1"));
        assert!(ts
            .iter()
            .any(|t| t.0 == TokenKind::Int && t.1 == "0xFF_u32"));
        assert!(ts.iter().any(|t| t.0 == TokenKind::Float && t.1 == "2e9"));
        assert!(ts.iter().any(|t| t.0 == TokenKind::Float && t.1 == "3f64"));
        roundtrip(src);
    }

    #[test]
    fn line_col_positions() {
        let src = "ab\n  cd\n";
        let ts: Vec<Token> = tokenize(src)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .collect();
        assert_eq!((ts[0].line, ts[0].col), (1, 1));
        assert_eq!((ts[1].line, ts[1].col), (2, 3));
    }

    #[test]
    fn multiline_string_advances_lines() {
        let src = "let s = \"one\ntwo\";\nlet x = 1;";
        let last = tokenize(src)
            .into_iter()
            .rfind(|t| t.kind == TokenKind::Int)
            .unwrap();
        assert_eq!(last.line, 3);
    }

    #[test]
    fn unterminated_inputs_do_not_panic() {
        for src in ["\"abc", "r#\"abc", "/* abc", "b'", "'\\", "1."] {
            roundtrip(src);
        }
    }

    #[test]
    fn mask_preserves_layout_and_code() {
        let src = "let s = \"Instant::now()\"; // HashMap::new()\nlet t = 1;";
        let masked = mask_noncode(src);
        assert_eq!(masked.len(), src.len());
        assert!(!masked.contains("Instant"));
        assert!(!masked.contains("HashMap"));
        assert!(masked.contains("let t = 1;"));
        assert_eq!(masked.matches('\n').count(), src.matches('\n').count());
    }
}
