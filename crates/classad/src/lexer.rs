//! A hand-written lexer for the ClassAd language.
//!
//! The lexer is a single forward pass over the input bytes; it never
//! backtracks more than one character. `//` line comments and `/* ... */`
//! block comments are skipped as whitespace (the workstation ad in Figure 1
//! of the paper uses `//` comments).

use crate::error::{LexError, LexErrorKind, Span};
use crate::token::{Token, TokenKind};

/// Streaming tokenizer over classad source text.
pub struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    /// Create a lexer over `src`.
    pub fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    /// Tokenize the entire input, appending a final [`TokenKind::Eof`] token.
    pub fn tokenize(mut self) -> Result<Vec<Token>, LexError> {
        let mut out = Vec::new();
        loop {
            let tok = self.next_token()?;
            let done = tok.kind == TokenKind::Eof;
            out.push(tok);
            if done {
                return Ok(out);
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.pos + 1).copied()
    }

    fn peek3(&self) -> Option<u8> {
        self.bytes.get(self.pos + 2).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn here(&self) -> Span {
        Span::new(self.pos, self.pos, self.line, self.col)
    }

    fn span_from(&self, start: Span) -> Span {
        Span::new(start.start, self.pos, start.line, start.col)
    }

    fn err(&self, start: Span, kind: LexErrorKind) -> LexError {
        LexError {
            span: self.span_from(start),
            kind,
        }
    }

    fn skip_trivia(&mut self) -> Result<(), LexError> {
        loop {
            match self.peek() {
                Some(b' ') | Some(b'\t') | Some(b'\r') | Some(b'\n') => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.here();
                    self.bump();
                    self.bump();
                    loop {
                        match self.peek() {
                            None => return Err(self.err(start, LexErrorKind::UnterminatedComment)),
                            Some(b'*') if self.peek2() == Some(b'/') => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            _ => {
                                self.bump();
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn next_token(&mut self) -> Result<Token, LexError> {
        self.skip_trivia()?;
        let start = self.here();
        let Some(b) = self.peek() else {
            return Ok(Token {
                kind: TokenKind::Eof,
                span: start,
            });
        };
        let kind = match b {
            b'0'..=b'9' => return self.number(start),
            // `.5` is a real literal; a lone `.` is the selection operator.
            b'.' if matches!(self.peek2(), Some(b'0'..=b'9')) => return self.number(start),
            b'"' => return self.string(start),
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => return Ok(self.ident(start)),
            b'+' => {
                self.bump();
                TokenKind::Plus
            }
            b'-' => {
                self.bump();
                TokenKind::Minus
            }
            b'*' => {
                self.bump();
                TokenKind::Star
            }
            b'/' => {
                self.bump();
                TokenKind::Slash
            }
            b'%' => {
                self.bump();
                TokenKind::Percent
            }
            b'<' => {
                self.bump();
                match self.peek() {
                    Some(b'=') => {
                        self.bump();
                        TokenKind::Le
                    }
                    Some(b'<') => {
                        self.bump();
                        TokenKind::Shl
                    }
                    _ => TokenKind::Lt,
                }
            }
            b'>' => {
                self.bump();
                match self.peek() {
                    Some(b'=') => {
                        self.bump();
                        TokenKind::Ge
                    }
                    Some(b'>') => {
                        self.bump();
                        if self.peek() == Some(b'>') {
                            self.bump();
                            TokenKind::Ushr
                        } else {
                            TokenKind::Shr
                        }
                    }
                    _ => TokenKind::Gt,
                }
            }
            b'=' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    TokenKind::EqEq
                } else if self.peek() == Some(b'?') && self.peek2() == Some(b'=') {
                    // Legacy Condor `=?=` is the same operation as `is`.
                    self.bump();
                    self.bump();
                    TokenKind::Is
                } else if self.peek() == Some(b'!') && self.peek2() == Some(b'=') {
                    // Legacy Condor `=!=` is the same operation as `isnt`.
                    self.bump();
                    self.bump();
                    TokenKind::Isnt
                } else {
                    TokenKind::Assign
                }
            }
            b'!' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    TokenKind::NotEq
                } else {
                    TokenKind::Bang
                }
            }
            b'&' => {
                self.bump();
                if self.peek() == Some(b'&') {
                    self.bump();
                    TokenKind::AndAnd
                } else {
                    TokenKind::Amp
                }
            }
            b'|' => {
                self.bump();
                if self.peek() == Some(b'|') {
                    self.bump();
                    TokenKind::OrOr
                } else {
                    TokenKind::Pipe
                }
            }
            b'^' => {
                self.bump();
                TokenKind::Caret
            }
            b'~' => {
                self.bump();
                TokenKind::Tilde
            }
            b'?' => {
                self.bump();
                TokenKind::Question
            }
            b':' => {
                self.bump();
                TokenKind::Colon
            }
            b';' => {
                self.bump();
                TokenKind::Semi
            }
            b',' => {
                self.bump();
                TokenKind::Comma
            }
            b'.' => {
                self.bump();
                TokenKind::Dot
            }
            b'(' => {
                self.bump();
                TokenKind::LParen
            }
            b')' => {
                self.bump();
                TokenKind::RParen
            }
            b'[' => {
                self.bump();
                TokenKind::LBracket
            }
            b']' => {
                self.bump();
                TokenKind::RBracket
            }
            b'{' => {
                self.bump();
                TokenKind::LBrace
            }
            b'}' => {
                self.bump();
                TokenKind::RBrace
            }
            _ => {
                let c = self.src[self.pos..].chars().next().unwrap_or('\u{FFFD}');
                // Consume the full (possibly multi-byte) char so errors
                // report it intact.
                for _ in 0..c.len_utf8() {
                    self.bump();
                }
                return Err(self.err(start, LexErrorKind::UnexpectedChar(c)));
            }
        };
        Ok(Token {
            kind,
            span: self.span_from(start),
        })
    }

    fn ident(&mut self, start: Span) -> Token {
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.bump();
            } else {
                break;
            }
        }
        let text = &self.src[start.start..self.pos];
        let kind = match_keyword(text).unwrap_or_else(|| TokenKind::Ident(text.to_string()));
        Token {
            kind,
            span: self.span_from(start),
        }
    }

    fn number(&mut self, start: Span) -> Result<Token, LexError> {
        // Hex integers.
        if self.peek() == Some(b'0') && matches!(self.peek2(), Some(b'x') | Some(b'X')) {
            self.bump();
            self.bump();
            let digits_start = self.pos;
            while let Some(b) = self.peek() {
                if b.is_ascii_hexdigit() {
                    self.bump();
                } else {
                    break;
                }
            }
            let digits = &self.src[digits_start..self.pos];
            let text = &self.src[start.start..self.pos];
            if digits.is_empty() {
                return Err(self.err(start, LexErrorKind::MalformedNumber(text.into())));
            }
            let val = i64::from_str_radix(digits, 16)
                .map_err(|_| self.err(start, LexErrorKind::MalformedNumber(text.into())))?;
            return Ok(Token {
                kind: TokenKind::Int(val),
                span: self.span_from(start),
            });
        }

        let mut saw_dot = false;
        let mut saw_exp = false;
        // Leading `.5` form: the caller guarantees a digit follows the dot.
        if self.peek() == Some(b'.') {
            saw_dot = true;
            self.bump();
        }
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {
                    self.bump();
                }
                b'.' if !saw_dot && !saw_exp && matches!(self.peek2(), Some(b'0'..=b'9')) => {
                    saw_dot = true;
                    self.bump();
                }
                b'e' | b'E' if !saw_exp => {
                    // Only an exponent if followed by digits (or sign+digits);
                    // otherwise `1E` starts an identifier boundary error case,
                    // but `KFlops/1E3` must scan as a real.
                    let next = self.peek2();
                    let next_is_digit = matches!(next, Some(b'0'..=b'9'));
                    let next_is_signed_digit = matches!(next, Some(b'+') | Some(b'-'))
                        && matches!(self.peek3(), Some(b'0'..=b'9'));
                    if next_is_digit || next_is_signed_digit {
                        saw_exp = true;
                        self.bump(); // e
                        self.bump(); // digit or sign
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }
        let text = &self.src[start.start..self.pos];
        let kind = if saw_dot || saw_exp {
            let v: f64 = text
                .parse()
                .map_err(|_| self.err(start, LexErrorKind::MalformedNumber(text.into())))?;
            TokenKind::Real(v)
        } else if text.len() > 1
            && text.starts_with('0')
            && text.bytes().all(|b| (b'0'..=b'7').contains(&b))
        {
            // Octal, per C tradition (kept for compatibility with classic ads).
            let v = i64::from_str_radix(&text[1..], 8)
                .map_err(|_| self.err(start, LexErrorKind::MalformedNumber(text.into())))?;
            TokenKind::Int(v)
        } else {
            match text.parse::<i64>() {
                Ok(v) => TokenKind::Int(v),
                // Integer overflow degrades to a real, like most classad
                // implementations do for out-of-range literals.
                Err(_) => match text.parse::<f64>() {
                    Ok(v) => TokenKind::Real(v),
                    Err(_) => {
                        return Err(self.err(start, LexErrorKind::MalformedNumber(text.into())))
                    }
                },
            }
        };
        Ok(Token {
            kind,
            span: self.span_from(start),
        })
    }

    fn string(&mut self, start: Span) -> Result<Token, LexError> {
        self.bump(); // opening quote
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err(start, LexErrorKind::UnterminatedString)),
                Some(b'"') => break,
                Some(b'\\') => {
                    let esc_start = self.here();
                    match self.bump() {
                        None => return Err(self.err(start, LexErrorKind::UnterminatedString)),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'"') => out.push('"'),
                        Some(b'\'') => out.push('\''),
                        Some(b'0') => out.push('\0'),
                        Some(other) => {
                            return Err(self.err(esc_start, LexErrorKind::BadEscape(other as char)))
                        }
                    }
                }
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Re-assemble a multi-byte UTF-8 sequence.
                    let char_start = self.pos - 1;
                    let c = self.src[char_start..].chars().next().unwrap_or('\u{FFFD}');
                    for _ in 1..c.len_utf8() {
                        self.bump();
                    }
                    let _ = b;
                    out.push(c);
                }
            }
        }
        Ok(Token {
            kind: TokenKind::Str(out),
            span: self.span_from(start),
        })
    }
}

/// Is `text` a keyword (`true`, `false`, `undefined`, `error`, `is`,
/// `isnt`, in any case) — a name that cannot stand as a bare attribute?
pub fn is_keyword(text: &str) -> bool {
    match_keyword(text).is_some()
}

fn match_keyword(text: &str) -> Option<TokenKind> {
    // Keywords are case-insensitive, like attribute names.
    if text.eq_ignore_ascii_case("true") {
        Some(TokenKind::True)
    } else if text.eq_ignore_ascii_case("false") {
        Some(TokenKind::False)
    } else if text.eq_ignore_ascii_case("undefined") {
        Some(TokenKind::Undefined)
    } else if text.eq_ignore_ascii_case("error") {
        Some(TokenKind::ErrorKw)
    } else if text.eq_ignore_ascii_case("is") {
        Some(TokenKind::Is)
    } else if text.eq_ignore_ascii_case("isnt") {
        Some(TokenKind::Isnt)
    } else {
        None
    }
}

/// Convenience: tokenize `src` in one call.
pub fn tokenize(src: &str) -> Result<Vec<Token>, LexError> {
    Lexer::new(src).tokenize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::LexErrorKind;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn empty_input_is_just_eof() {
        assert_eq!(kinds(""), vec![TokenKind::Eof]);
        assert_eq!(kinds("   \n\t "), vec![TokenKind::Eof]);
    }

    #[test]
    fn integers() {
        assert_eq!(kinds("42"), vec![TokenKind::Int(42), TokenKind::Eof]);
        assert_eq!(kinds("0"), vec![TokenKind::Int(0), TokenKind::Eof]);
        assert_eq!(kinds("0x2A"), vec![TokenKind::Int(42), TokenKind::Eof]);
        assert_eq!(kinds("052"), vec![TokenKind::Int(42), TokenKind::Eof]);
    }

    #[test]
    fn integer_overflow_degrades_to_real() {
        let ks = kinds("99999999999999999999");
        match &ks[0] {
            TokenKind::Real(v) => assert!(*v > 9.9e19),
            other => panic!("expected real, got {other:?}"),
        }
    }

    #[test]
    fn reals() {
        assert_eq!(kinds("3.25"), vec![TokenKind::Real(3.25), TokenKind::Eof]);
        assert_eq!(kinds(".5"), vec![TokenKind::Real(0.5), TokenKind::Eof]);
        assert_eq!(kinds("1E3"), vec![TokenKind::Real(1000.0), TokenKind::Eof]);
        assert_eq!(kinds("2e-2"), vec![TokenKind::Real(0.02), TokenKind::Eof]);
        assert_eq!(
            kinds("1.5e+2"),
            vec![TokenKind::Real(150.0), TokenKind::Eof]
        );
    }

    #[test]
    fn figure2_rank_divides_by_real() {
        // `KFlops/1E3` from Figure 2 of the paper.
        assert_eq!(
            kinds("KFlops/1E3"),
            vec![
                TokenKind::Ident("KFlops".into()),
                TokenKind::Slash,
                TokenKind::Real(1000.0),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn dot_after_number_without_digit_is_selection() {
        // `3.x` lexes as Int(3), Dot, Ident — selection off an integer
        // (semantically an error, but lexically well-formed).
        assert_eq!(
            kinds("3.x"),
            vec![
                TokenKind::Int(3),
                TokenKind::Dot,
                TokenKind::Ident("x".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn exponent_not_followed_by_digit_splits() {
        assert_eq!(
            kinds("1Exy"),
            vec![
                TokenKind::Int(1),
                TokenKind::Ident("Exy".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn strings_and_escapes() {
        assert_eq!(
            kinds(r#""INTEL""#),
            vec![TokenKind::Str("INTEL".into()), TokenKind::Eof]
        );
        assert_eq!(
            kinds(r#""a\nb\t\"q\"""#),
            vec![TokenKind::Str("a\nb\t\"q\"".into()), TokenKind::Eof]
        );
        assert_eq!(
            kinds("\"héllo\""),
            vec![TokenKind::Str("héllo".into()), TokenKind::Eof]
        );
    }

    #[test]
    fn unterminated_string_errors() {
        let e = tokenize("\"abc").unwrap_err();
        assert_eq!(e.kind, LexErrorKind::UnterminatedString);
    }

    #[test]
    fn bad_escape_errors() {
        let e = tokenize(r#""\q""#).unwrap_err();
        assert_eq!(e.kind, LexErrorKind::BadEscape('q'));
    }

    #[test]
    fn keywords_case_insensitive() {
        assert_eq!(kinds("TRUE"), vec![TokenKind::True, TokenKind::Eof]);
        assert_eq!(kinds("False"), vec![TokenKind::False, TokenKind::Eof]);
        assert_eq!(
            kinds("UNDEFINED"),
            vec![TokenKind::Undefined, TokenKind::Eof]
        );
        assert_eq!(kinds("Error"), vec![TokenKind::ErrorKw, TokenKind::Eof]);
        assert_eq!(kinds("IS"), vec![TokenKind::Is, TokenKind::Eof]);
        assert_eq!(kinds("IsNt"), vec![TokenKind::Isnt, TokenKind::Eof]);
    }

    #[test]
    fn identifiers_keep_case() {
        assert_eq!(
            kinds("KeyboardIdle _x y2"),
            vec![
                TokenKind::Ident("KeyboardIdle".into()),
                TokenKind::Ident("_x".into()),
                TokenKind::Ident("y2".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            kinds("+ - * / % < <= > >= == != && || ! ~ & | ^ << >> >>> ? : ; , . = ( ) [ ] { }"),
            vec![
                TokenKind::Plus,
                TokenKind::Minus,
                TokenKind::Star,
                TokenKind::Slash,
                TokenKind::Percent,
                TokenKind::Lt,
                TokenKind::Le,
                TokenKind::Gt,
                TokenKind::Ge,
                TokenKind::EqEq,
                TokenKind::NotEq,
                TokenKind::AndAnd,
                TokenKind::OrOr,
                TokenKind::Bang,
                TokenKind::Tilde,
                TokenKind::Amp,
                TokenKind::Pipe,
                TokenKind::Caret,
                TokenKind::Shl,
                TokenKind::Shr,
                TokenKind::Ushr,
                TokenKind::Question,
                TokenKind::Colon,
                TokenKind::Semi,
                TokenKind::Comma,
                TokenKind::Dot,
                TokenKind::Assign,
                TokenKind::LParen,
                TokenKind::RParen,
                TokenKind::LBracket,
                TokenKind::RBracket,
                TokenKind::LBrace,
                TokenKind::RBrace,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn legacy_meta_operators() {
        assert_eq!(
            kinds("x =?= y =!= z"),
            vec![
                TokenKind::Ident("x".into()),
                TokenKind::Is,
                TokenKind::Ident("y".into()),
                TokenKind::Isnt,
                TokenKind::Ident("z".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn comments_are_trivia() {
        assert_eq!(
            kinds("1 // comment\n+ /* block\nspanning */ 2"),
            vec![
                TokenKind::Int(1),
                TokenKind::Plus,
                TokenKind::Int(2),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn unterminated_comment_errors() {
        let e = tokenize("/* never ends").unwrap_err();
        assert_eq!(e.kind, LexErrorKind::UnterminatedComment);
    }

    #[test]
    fn unexpected_char_reports_position() {
        let e = tokenize("a\n  #").unwrap_err();
        assert_eq!(e.kind, LexErrorKind::UnexpectedChar('#'));
        assert_eq!(e.span.line, 2);
        assert_eq!(e.span.col, 3);
    }

    #[test]
    fn spans_track_lines_and_cols() {
        let toks = tokenize("ab\n cd").unwrap();
        assert_eq!(toks[0].span.line, 1);
        assert_eq!(toks[0].span.col, 1);
        assert_eq!(toks[1].span.line, 2);
        assert_eq!(toks[1].span.col, 2);
    }

    #[test]
    fn figure1_constraint_lexes() {
        let src = r#"
            !member(other.Owner, Untrusted) && Rank >= 10 ? true :
            Rank > 0 ? LoadAvg < 0.3 && KeyboardIdle > 15*60 :
            DayTime < 8*60*60 || DayTime > 18*60*60
        "#;
        let toks = tokenize(src).unwrap();
        assert!(toks.len() > 30);
        assert_eq!(toks.last().unwrap().kind, TokenKind::Eof);
    }
}
