//! Structural views over the token stream: function spans.
//!
//! These are deliberately shallow — no expression parsing, no type
//! resolution — but they give the rules exactly the shape they need:
//! "which tokens form the body of `fn merge`".

use crate::lexer::{Tok, TokKind};

/// One `fn` item found in a token stream.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range of the parameter list, exclusive of the parentheses.
    pub params: std::ops::Range<usize>,
    /// Token range between `)` and the body `{` (the return type, if any).
    pub ret: std::ops::Range<usize>,
    /// Token range of the body, exclusive of the outer braces.
    pub body: std::ops::Range<usize>,
}

/// Index of the matching close delimiter for the open delimiter at `open`.
/// Returns `tokens.len()` when unbalanced (truncated input).
#[must_use]
pub fn matching_close(tokens: &[Tok], open: usize, open_c: char, close_c: char) -> usize {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(open_c) {
            depth += 1;
        } else if t.is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    tokens.len()
}

/// Finds every `fn` item (free functions and methods alike).
#[must_use]
pub fn functions(tokens: &[Tok]) -> Vec<FnSpan> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_ident("fn") && tokens.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) {
            let name = tokens[i + 1].text.clone();
            let line = tokens[i].line;
            // Parameter list: first `(` after the name (skipping generics).
            let mut j = i + 2;
            if j < tokens.len() && tokens[j].is_punct('<') {
                j = matching_close(tokens, j, '<', '>') + 1;
            }
            if j >= tokens.len() || !tokens[j].is_punct('(') {
                i += 1;
                continue;
            }
            let params_close = matching_close(tokens, j, '(', ')');
            // Body: first `{` after the params (return types and where
            // clauses do not contain top-level braces in this codebase).
            let mut k = params_close + 1;
            while k < tokens.len() && !tokens[k].is_punct('{') && !tokens[k].is_punct(';') {
                k += 1;
            }
            if k >= tokens.len() || tokens[k].is_punct(';') {
                // Trait method signature without a body.
                i = k.min(tokens.len());
                continue;
            }
            let body_close = matching_close(tokens, k, '{', '}');
            out.push(FnSpan {
                name,
                line,
                params: j + 1..params_close,
                ret: params_close + 1..k,
                body: k + 1..body_close,
            });
            // Continue *inside* the body too: nested fns are rare but real.
            i += 2;
        } else {
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn functions_and_bodies_are_found() {
        let lexed = lex("fn a(x: u64) -> u64 { x + 1 }\nimpl T { fn b(&self) { self.go(); } }");
        let fns = functions(&lexed.tokens);
        let names: Vec<_> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert!(fns[0].body.len() >= 3);
    }
}
