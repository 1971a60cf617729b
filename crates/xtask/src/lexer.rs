//! A minimal Rust lexer sufficient for the `analyze` rules.
//!
//! The container this workspace builds in cannot fetch external crates, so
//! the analyzer cannot lean on `syn`; instead it tokenizes just enough of
//! the language to answer the questions the rules ask: identifiers, puncts,
//! string/char/lifetime disambiguation, nested block comments, raw strings,
//! and doc comments (kept, because the `# Invariants` rule inspects them).
//!
//! The lexer is intentionally forgiving: on malformed input it produces a
//! best-effort token stream rather than erroring, because the compiler gates
//! real syntax errors long before `cargo xtask analyze` runs in CI.

/// One lexed token with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    /// Token text (for identifiers and doc comments; puncts carry the char).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
    /// 1-based column the token starts at.
    pub col: usize,
}

/// Token classes the rules distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (including raw `r#ident`, with the `r#` kept).
    Ident,
    /// A single punctuation character (`.`, `!`, `<`, `{`, ...).
    Punct,
    /// String, byte-string, raw-string, or char literal (text is dropped).
    Literal,
    /// Numeric literal.
    Number,
    /// A lifetime such as `'a` (text excludes the quote).
    Lifetime,
    /// `///` or `//!` doc comment (text is the content after the marker).
    DocComment,
}

impl Token {
    fn new(kind: TokenKind, text: impl Into<String>, line: usize, col: usize) -> Token {
        Token {
            kind,
            text: text.into(),
            line,
            col,
        }
    }

    /// True for a punct token of exactly this character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.as_bytes().first() == Some(&(c as u8))
    }

    /// True for an identifier token with exactly this text.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }
}

/// Tokenizes Rust source. Plain comments vanish; doc comments survive as
/// [`TokenKind::DocComment`] tokens so rules can inspect documentation.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
    out: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Vec<Token> {
        while self.pos < self.src.len() {
            let (line, col) = (self.line, self.col);
            let c = self.src[self.pos];
            match c {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(line, col),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string_literal(line, col),
                b'b' if self.peek(1) == Some(b'"') => {
                    self.bump();
                    self.string_literal(line, col);
                }
                b'r' | b'b'
                    if self.raw_string_hashes().is_some()
                        || (c == b'b'
                            && self.peek(1) == Some(b'r')
                            && self.raw_string_hashes_at(2).is_some()) =>
                {
                    self.raw_string(line, col)
                }
                b'\'' => self.char_or_lifetime(line, col),
                _ if c == b'_' || c.is_ascii_alphabetic() => self.ident(line, col),
                _ if c.is_ascii_digit() => self.number(line, col),
                _ => {
                    self.out.push(Token::new(
                        TokenKind::Punct,
                        (c as char).to_string(),
                        line,
                        col,
                    ));
                    self.bump();
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) {
        if self.src[self.pos] == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        self.pos += 1;
    }

    /// If the cursor sits on `r"`, `r#"`, `r##"`, ... returns the hash count.
    fn raw_string_hashes(&self) -> Option<usize> {
        if self.src[self.pos] != b'r' {
            return None;
        }
        self.raw_string_hashes_at(1)
    }

    fn raw_string_hashes_at(&self, mut i: usize) -> Option<usize> {
        let mut hashes = 0;
        while self.peek(i) == Some(b'#') {
            hashes += 1;
            i += 1;
        }
        // `r#ident` is a raw identifier, not a raw string.
        (self.peek(i) == Some(b'"')).then_some(hashes)
    }

    fn line_comment(&mut self, line: usize, col: usize) {
        // Distinguish `///` and `//!` (doc) from `//` and `////` (plain).
        let third = self.peek(2);
        let fourth = self.peek(3);
        let is_doc = matches!(third, Some(b'/') | Some(b'!')) && fourth != Some(b'/');
        let start = self.pos;
        while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
            self.bump();
        }
        if is_doc {
            let text = String::from_utf8_lossy(&self.src[start + 3..self.pos]).into_owned();
            self.out
                .push(Token::new(TokenKind::DocComment, text, line, col));
        }
    }

    fn block_comment(&mut self) {
        // `/** ... */` and `/*! ... */` are doc comments too, but the rules
        // only read line-doc; block docs are rare and simply dropped.
        let mut depth = 0usize;
        while self.pos < self.src.len() {
            if self.src[self.pos] == b'/' && self.peek(1) == Some(b'*') {
                depth += 1;
                self.bump();
                self.bump();
            } else if self.src[self.pos] == b'*' && self.peek(1) == Some(b'/') {
                self.bump();
                self.bump();
                depth -= 1;
                if depth == 0 {
                    return;
                }
            } else {
                self.bump();
            }
        }
    }

    fn string_literal(&mut self, line: usize, col: usize) {
        self.bump(); // opening quote
        while self.pos < self.src.len() {
            match self.src[self.pos] {
                b'\\' => {
                    self.bump();
                    if self.pos < self.src.len() {
                        self.bump();
                    }
                }
                b'"' => {
                    self.bump();
                    break;
                }
                _ => self.bump(),
            }
        }
        self.out.push(Token::new(TokenKind::Literal, "", line, col));
    }

    fn raw_string(&mut self, line: usize, col: usize) {
        if self.src[self.pos] == b'b' {
            self.bump();
        }
        self.bump(); // 'r'
        let mut hashes = 0usize;
        while self.pos < self.src.len() && self.src[self.pos] == b'#' {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        while self.pos < self.src.len() {
            if self.src[self.pos] == b'"' {
                let mut ok = true;
                for i in 0..hashes {
                    if self.peek(1 + i) != Some(b'#') {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    self.bump();
                    for _ in 0..hashes {
                        self.bump();
                    }
                    break;
                }
            }
            self.bump();
        }
        self.out.push(Token::new(TokenKind::Literal, "", line, col));
    }

    fn char_or_lifetime(&mut self, line: usize, col: usize) {
        // `'a` (no closing quote soon) is a lifetime; `'x'`, `'\n'` are chars.
        let is_char = matches!(
            (self.peek(1), self.peek(2)),
            (Some(b'\\'), _) | (Some(_), Some(b'\''))
        );
        if is_char {
            self.bump(); // '
            if self.src.get(self.pos) == Some(&b'\\') {
                self.bump();
            }
            while self.pos < self.src.len() && self.src[self.pos] != b'\'' {
                self.bump();
            }
            if self.pos < self.src.len() {
                self.bump();
            }
            self.out.push(Token::new(TokenKind::Literal, "", line, col));
        } else {
            self.bump(); // '
            let start = self.pos;
            while self.pos < self.src.len()
                && (self.src[self.pos] == b'_' || self.src[self.pos].is_ascii_alphanumeric())
            {
                self.bump();
            }
            let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
            self.out
                .push(Token::new(TokenKind::Lifetime, text, line, col));
        }
    }

    fn ident(&mut self, line: usize, col: usize) {
        let start = self.pos;
        // Raw identifier prefix.
        if self.src[self.pos] == b'r' && self.peek(1) == Some(b'#') {
            self.bump();
            self.bump();
        }
        while self.pos < self.src.len()
            && (self.src[self.pos] == b'_' || self.src[self.pos].is_ascii_alphanumeric())
        {
            self.bump();
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.out.push(Token::new(TokenKind::Ident, text, line, col));
    }

    fn number(&mut self, line: usize, col: usize) {
        while self.pos < self.src.len()
            && (self.src[self.pos].is_ascii_alphanumeric()
                || self.src[self.pos] == b'_'
                || self.src[self.pos] == b'.')
        {
            // Stop at `..` (range) and method calls on literals (`1.max(2)`).
            if self.src[self.pos] == b'.'
                && !self.peek(1).map(|c| c.is_ascii_digit()).unwrap_or(false)
            {
                break;
            }
            self.bump();
        }
        self.out.push(Token::new(TokenKind::Number, "", line, col));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_panics() {
        let src = r##"
            // panic! in a comment
            /* unwrap() in a block /* nested */ comment */
            let s = "panic!(\"in a string\")";
            let r = r#"unwrap() in a raw string"#;
            let b = b"expect in bytes";
        "##;
        let ids = idents(src);
        assert!(
            !ids.iter()
                .any(|i| i == "panic" || i == "unwrap" || i == "expect"),
            "{ids:?}"
        );
    }

    #[test]
    fn doc_comments_survive() {
        let toks = lex("/// # Invariants\n/// stays sorted\nfn f() {}\n");
        let docs: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::DocComment)
            .collect();
        assert_eq!(docs.len(), 2);
        assert!(docs[0].text.contains("# Invariants"));
    }

    #[test]
    fn plain_quadruple_slash_is_not_doc() {
        let toks = lex("//// separator\nfn f() {}\n");
        assert!(toks.iter().all(|t| t.kind != TokenKind::DocComment));
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let ids = idents("fn f<'a>(x: &'a str) -> &'a str { x.trim() }");
        assert!(ids.contains(&"trim".to_string()));
        let toks = lex("'a");
        assert_eq!(toks[0].kind, TokenKind::Lifetime);
        assert_eq!(toks[0].text, "a");
    }

    #[test]
    fn char_literals_lex_as_literals() {
        let toks = lex("let c = 'x'; let n = '\\n'; let q = '\\'';");
        let lits = toks.iter().filter(|t| t.kind == TokenKind::Literal).count();
        assert_eq!(lits, 3);
    }

    #[test]
    fn line_numbers_are_accurate() {
        let toks = lex("fn a() {}\nfn unwrap_site() {}\n");
        let t = toks.iter().find(|t| t.is_ident("unwrap_site")).unwrap();
        assert_eq!(t.line, 2);
    }

    #[test]
    fn raw_ident_is_single_token() {
        let ids = idents("let r#fn = 1;");
        assert!(ids.contains(&"r#fn".to_string()));
    }

    #[test]
    fn numbers_with_method_calls() {
        let ids = idents("let x = 1.max(2); let y = 1.5e3; let r = 0..10;");
        assert!(ids.contains(&"max".to_string()));
    }

    /// A raw string with embedded quotes and hashes must lex as one literal
    /// and leave line/col tracking intact for the tokens after it —
    /// path-aware rules anchor diagnostics on those positions.
    #[test]
    fn raw_strings_do_not_desync_positions() {
        let src = "let s = r#\"quote \" and // not a comment\n{ brace }\"#;\nlet marker = 1;\n";
        let toks = lex(src);
        assert!(
            !toks
                .iter()
                .any(|t| t.is_ident("comment") || t.is_ident("brace")),
            "raw string contents leaked: {toks:?}"
        );
        let t = toks.iter().find(|t| t.is_ident("marker")).unwrap();
        assert_eq!((t.line, t.col), (3, 5));
    }

    /// Rust block comments nest; the lexer must not resume at the first
    /// `*/` or everything after an inner comment shifts.
    #[test]
    fn nested_block_comments_do_not_desync_positions() {
        let src = "/* outer /* inner */ still comment\nmore */\nfn marker() {}\n";
        let toks = lex(src);
        assert!(
            !toks
                .iter()
                .any(|t| t.is_ident("still") || t.is_ident("more")),
            "nested comment leaked: {toks:?}"
        );
        let t = toks.iter().find(|t| t.is_ident("marker")).unwrap();
        assert_eq!((t.line, t.col), (3, 4));
    }

    /// Lifetime ticks must consume exactly the lifetime, keeping the
    /// columns of the tokens that follow on the same line.
    #[test]
    fn lifetime_ticks_keep_columns() {
        let toks = lex("fn f<'a, 'b>(x: &'a str) -> &'b str { x }");
        let t = toks.iter().find(|t| t.is_ident("str")).unwrap();
        assert_eq!((t.line, t.col), (1, 21));
        let lifetimes = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count();
        assert_eq!(lifetimes, 4);
    }
}
