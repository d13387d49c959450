//! Abstract syntax tree for ClassAd expressions.
//!
//! Expressions are immutable once built; classads store them behind [`Arc`]
//! so ads can be cloned cheaply into ad stores and shared across the
//! daemon's threads.

use std::fmt;
use std::sync::Arc;

/// An attribute (or function) name.
///
/// ClassAd names are **case-insensitive** but case-preserving: `Memory`,
/// `MEMORY` and `memory` denote the same attribute, and the pretty-printer
/// reproduces whichever spelling was written. `AttrName` caches the
/// case-folded form so lookups never re-fold.
#[derive(Clone)]
pub struct AttrName {
    display: Arc<str>,
    canon: Arc<str>,
}

impl AttrName {
    /// Create a name, folding the canonical form to ASCII lowercase.
    pub fn new(name: &str) -> Self {
        let display: Arc<str> = Arc::from(name);
        let canon: Arc<str> = if name.bytes().any(|b| b.is_ascii_uppercase()) {
            Arc::from(name.to_ascii_lowercase().as_str())
        } else {
            display.clone()
        };
        AttrName { display, canon }
    }

    /// The name as written in the source.
    pub fn as_str(&self) -> &str {
        &self.display
    }

    /// The case-folded (ASCII-lowercase) form used for comparisons.
    pub fn canonical(&self) -> &str {
        &self.canon
    }

    /// The cached canonical form as a shared handle. Cloning an `Arc<str>`
    /// is a refcount bump, so hot paths (cycle-detection keys, dependency
    /// sets) can key on the canonical name without re-folding or copying.
    pub fn canonical_arc(&self) -> Arc<str> {
        self.canon.clone()
    }
}

impl PartialEq for AttrName {
    fn eq(&self, other: &Self) -> bool {
        self.canon == other.canon
    }
}

impl Eq for AttrName {}

impl std::hash::Hash for AttrName {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.canon.hash(state)
    }
}

impl fmt::Debug for AttrName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AttrName({})", self.display)
    }
}

impl fmt::Display for AttrName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display)
    }
}

impl From<&str> for AttrName {
    fn from(s: &str) -> Self {
        AttrName::new(s)
    }
}

impl From<String> for AttrName {
    fn from(s: String) -> Self {
        AttrName::new(&s)
    }
}

/// Explicit scope qualifiers on attribute references.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scope {
    /// `self.X` (alias: `my.X`) — the ad containing the reference.
    My,
    /// `other.X` (alias: `target.X`) — the candidate ad on the other side
    /// of the match.
    Target,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-e`.
    Neg,
    /// Arithmetic identity `+e` (still type-checks its operand).
    Pos,
    /// Logical negation `!e` (three-valued).
    Not,
    /// Bitwise complement `~e` (integers only).
    BitNot,
}

/// Binary operators, in source syntax order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==` — strict equality (strings case-insensitive).
    Eq,
    /// `!=` — strict inequality.
    Ne,
    /// `is` / `=?=` — non-strict identity (never `undefined`).
    Is,
    /// `isnt` / `=!=` — non-strict non-identity.
    Isnt,
    /// `&&` — non-strict three-valued conjunction.
    And,
    /// `||` — non-strict three-valued disjunction.
    Or,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `<<`
    Shl,
    /// `>>` (arithmetic)
    Shr,
    /// `>>>` (logical)
    Ushr,
}

impl BinOp {
    /// The operator's source spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Is => "is",
            BinOp::Isnt => "isnt",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Ushr => ">>>",
        }
    }
}

impl UnOp {
    /// The operator's source spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Pos => "+",
            UnOp::Not => "!",
            UnOp::BitNot => "~",
        }
    }
}

/// Literal constants appearing directly in expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// `undefined`
    Undefined,
    /// `error`
    Error,
    /// `true` / `false`
    Bool(bool),
    /// Integer literal.
    Int(i64),
    /// Real literal.
    Real(f64),
    /// String literal.
    Str(Arc<str>),
}

/// A ClassAd expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal constant.
    Lit(Literal),
    /// An unqualified attribute reference, e.g. `Memory`.
    ///
    /// Resolution order in a match context: the referencing ad itself,
    /// then enclosing (parent) ads, then — if the evaluation policy allows,
    /// which it does by default — the *other* ad. The fallback is what makes
    /// the paper's Figure 2 constraint (`Arch == "INTEL"` in a job ad with
    /// no `Arch` attribute) resolve against the machine ad.
    Attr(AttrName),
    /// A scope-qualified reference: `self.X` or `other.X`.
    ScopedAttr(Scope, AttrName),
    /// Selection from an arbitrary expression: `expr.X`.
    Select(Box<Expr>, AttrName),
    /// Subscript: `expr[index]` — list element or ad attribute by name.
    Index(Box<Expr>, Box<Expr>),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Conditional `cond ? then : else`.
    Cond(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Function call, e.g. `member(other.Owner, ResearchGroup)`.
    Call(AttrName, Vec<Expr>),
    /// List constructor `{ e1, e2, ... }`.
    List(Vec<Expr>),
    /// Record (nested classad) constructor `[ a = e1; b = e2; ]`.
    Record(Vec<(AttrName, Expr)>),
}

impl Expr {
    /// Shorthand: integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Lit(Literal::Int(v))
    }

    /// Shorthand: real literal.
    pub fn real(v: f64) -> Expr {
        Expr::Lit(Literal::Real(v))
    }

    /// Shorthand: string literal.
    pub fn str(v: &str) -> Expr {
        Expr::Lit(Literal::Str(Arc::from(v)))
    }

    /// Shorthand: boolean literal.
    pub fn bool(v: bool) -> Expr {
        Expr::Lit(Literal::Bool(v))
    }

    /// Shorthand: unqualified attribute reference.
    pub fn attr(name: &str) -> Expr {
        Expr::Attr(AttrName::new(name))
    }

    /// Shorthand: `other.name`.
    pub fn other(name: &str) -> Expr {
        Expr::ScopedAttr(Scope::Target, AttrName::new(name))
    }

    /// Shorthand: `self.name`.
    pub fn self_(name: &str) -> Expr {
        Expr::ScopedAttr(Scope::My, AttrName::new(name))
    }

    /// Shorthand: binary operation.
    pub fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary(op, Box::new(l), Box::new(r))
    }

    /// True if this expression is a constant literal (no references).
    pub fn is_literal(&self) -> bool {
        matches!(self, Expr::Lit(_))
    }

    /// Walk the expression tree, calling `f` on every node (preorder).
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Lit(_) | Expr::Attr(_) | Expr::ScopedAttr(..) => {}
            Expr::Select(e, _) => e.visit(f),
            Expr::Index(e, i) => {
                e.visit(f);
                i.visit(f);
            }
            Expr::Unary(_, e) => e.visit(f),
            Expr::Binary(_, l, r) => {
                l.visit(f);
                r.visit(f);
            }
            Expr::Cond(c, t, e) => {
                c.visit(f);
                t.visit(f);
                e.visit(f);
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.visit(f);
                }
            }
            Expr::List(items) => {
                for i in items {
                    i.visit(f);
                }
            }
            Expr::Record(fields) => {
                for (_, e) in fields {
                    e.visit(f);
                }
            }
        }
    }

    /// Collect the canonical names of all *external* attributes this
    /// expression references — i.e. `other.X` references plus unqualified
    /// references (which may fall through to the other ad).
    pub fn external_refs(&self) -> Vec<AttrName> {
        let mut out = Vec::new();
        self.visit(&mut |e| match e {
            Expr::Attr(n) => out.push(n.clone()),
            Expr::ScopedAttr(Scope::Target, n) => out.push(n.clone()),
            _ => {}
        });
        out
    }
}

impl Drop for Expr {
    /// Iterative drop: expressions can form very deep trees (long `&&`
    /// chains, generated ads), and the default recursive drop glue would
    /// overflow the stack. Children are detached onto an explicit worklist
    /// instead.
    fn drop(&mut self) {
        if is_leaf(self) {
            return;
        }
        let mut stack: Vec<Expr> = Vec::new();
        detach_children(self, &mut stack);
        while let Some(mut e) = stack.pop() {
            detach_children(&mut e, &mut stack);
        }
    }
}

fn is_leaf(e: &Expr) -> bool {
    matches!(e, Expr::Lit(_) | Expr::Attr(_) | Expr::ScopedAttr(..))
}

fn detach_children(e: &mut Expr, out: &mut Vec<Expr>) {
    fn take(b: &mut Expr) -> Expr {
        std::mem::replace(b, Expr::Lit(Literal::Bool(false)))
    }
    match e {
        Expr::Lit(_) | Expr::Attr(_) | Expr::ScopedAttr(..) => {}
        Expr::Select(b, _) | Expr::Unary(_, b) => {
            if !is_leaf(b) {
                out.push(take(b));
            }
        }
        Expr::Index(a, b) | Expr::Binary(_, a, b) => {
            if !is_leaf(a) {
                out.push(take(a));
            }
            if !is_leaf(b) {
                out.push(take(b));
            }
        }
        Expr::Cond(a, b, c) => {
            for x in [a, b, c] {
                if !is_leaf(x) {
                    out.push(take(x));
                }
            }
        }
        Expr::Call(_, args) | Expr::List(args) => {
            out.extend(args.drain(..).filter(|x| !is_leaf(x)));
        }
        Expr::Record(fields) => {
            out.extend(fields.drain(..).map(|(_, x)| x).filter(|x| !is_leaf(x)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_name_case_insensitive_eq_and_hash() {
        use std::collections::HashSet;
        let a = AttrName::new("Memory");
        let b = AttrName::new("MEMORY");
        assert_eq!(a, b);
        assert_eq!(a.canonical(), "memory");
        assert_eq!(a.as_str(), "Memory");
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn attr_name_lowercase_shares_allocation() {
        let a = AttrName::new("already_lower");
        assert_eq!(a.as_str(), a.canonical());
    }

    #[test]
    fn expr_builders() {
        let e = Expr::bin(BinOp::Ge, Expr::other("Memory"), Expr::self_("Memory"));
        match &e {
            Expr::Binary(BinOp::Ge, l, r) => {
                assert_eq!(**l, Expr::ScopedAttr(Scope::Target, "memory".into()));
                assert_eq!(**r, Expr::ScopedAttr(Scope::My, "Memory".into()));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn visit_reaches_all_nodes() {
        let e = Expr::Cond(
            Box::new(Expr::attr("a")),
            Box::new(Expr::List(vec![Expr::int(1), Expr::int(2)])),
            Box::new(Expr::Call("f".into(), vec![Expr::str("x")])),
        );
        let mut count = 0;
        e.visit(&mut |_| count += 1);
        assert_eq!(count, 7);
    }

    #[test]
    fn external_refs_collects_bare_and_target() {
        let e = Expr::bin(
            BinOp::And,
            Expr::bin(BinOp::Eq, Expr::other("Arch"), Expr::str("INTEL")),
            Expr::bin(BinOp::Ge, Expr::attr("Disk"), Expr::self_("MinDisk")),
        );
        let refs: Vec<String> = e
            .external_refs()
            .iter()
            .map(|n| n.canonical().to_string())
            .collect();
        assert_eq!(refs, vec!["arch", "disk"]);
    }

    #[test]
    fn op_symbols() {
        assert_eq!(BinOp::Ushr.symbol(), ">>>");
        assert_eq!(UnOp::Not.symbol(), "!");
    }
}
