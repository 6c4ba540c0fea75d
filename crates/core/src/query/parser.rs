//! Recursive-descent parser for the XQuery subset.

use super::ast::*;
use super::lexer::{tokenize, LexError, Token, TokenKind};

/// Parse error with source offset.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset in the query.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at offset {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError { offset: e.offset, message: e.message }
    }
}

/// Maximum expression nesting depth. Each level of the recursive-descent
/// grammar costs a dozen stack frames (one full precedence chain), so the
/// cap is what turns a pathologically nested query (10k parentheses, unary
/// minuses, nested constructors…) into a [`ParseError`] instead of a stack
/// overflow. 64 levels is far beyond any real query while keeping
/// worst-case stack use inside even a 2 MiB (default test-thread) stack in
/// unoptimised builds.
pub const MAX_EXPR_DEPTH: usize = 64;

/// Parse a query string.
pub fn parse(src: &str) -> Result<Expr, ParseError> {
    let tokens = tokenize(src)?;
    let mut p = Parser { tokens, pos: 0, depth: 0 };
    let expr = p.expr()?;
    p.expect_eof()?;
    Ok(expr)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError { offset: self.offset(), message: msg.into() })
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), TokenKind::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            self.err(format!("expected `{p}`, found {}", self.peek()))
        }
    }

    fn eat_keyword(&mut self, k: &str) -> bool {
        if matches!(self.peek(), TokenKind::Keyword(q) if q == k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, k: &str) -> Result<(), ParseError> {
        if self.eat_keyword(k) {
            Ok(())
        } else {
            self.err(format!("expected `{k}`, found {}", self.peek()))
        }
    }

    fn expect_var(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            TokenKind::Var(v) => {
                self.bump();
                Ok(v)
            }
            other => self.err(format!("expected variable, found {other}")),
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            self.err(format!("unexpected trailing {}", self.peek()))
        }
    }

    /// Count one level of grammar recursion; errors past [`MAX_EXPR_DEPTH`].
    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_EXPR_DEPTH {
            self.err(format!("expression nesting exceeds {MAX_EXPR_DEPTH} levels"))
        } else {
            Ok(())
        }
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    // ---- expression grammar -------------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        let first = self.single_expr()?;
        if matches!(self.peek(), TokenKind::Punct(",")) {
            let mut items = vec![first];
            while self.eat_punct(",") {
                items.push(self.single_expr()?);
            }
            Ok(Expr::Seq(items))
        } else {
            Ok(first)
        }
    }

    fn single_expr(&mut self) -> Result<Expr, ParseError> {
        // Every grammar cycle (parenthesised expressions, FLWOR bodies,
        // step predicates, function arguments) passes through here, so one
        // depth check bounds them all.
        self.enter()?;
        let out = match self.peek() {
            TokenKind::Keyword(k) if k == "for" || k == "let" => self.flwor(),
            TokenKind::Keyword(k) if k == "if" => self.if_expr(),
            TokenKind::Keyword(k) if k == "some" || k == "every" => self.some_expr(),
            _ => self.or_expr(),
        };
        self.leave();
        out
    }

    fn flwor(&mut self) -> Result<Expr, ParseError> {
        let mut clauses = Vec::new();
        loop {
            if self.eat_keyword("for") {
                loop {
                    let var = self.expect_var()?;
                    self.expect_keyword("in")?;
                    let src = self.single_expr()?;
                    clauses.push(Clause::For(var, src));
                    if !self.eat_punct(",") {
                        break;
                    }
                }
            } else if self.eat_keyword("let") {
                loop {
                    let var = self.expect_var()?;
                    self.expect_punct(":=")?;
                    let src = self.single_expr()?;
                    clauses.push(Clause::Let(var, src));
                    if !self.eat_punct(",") {
                        break;
                    }
                }
            } else if self.eat_keyword("where") {
                let cond = self.single_expr()?;
                clauses.push(Clause::Where(cond));
            } else if self.eat_keyword("order") {
                self.expect_keyword("by")?;
                let key = self.single_expr()?;
                let desc = if self.eat_keyword("descending") {
                    true
                } else {
                    self.eat_keyword("ascending");
                    false
                };
                clauses.push(Clause::OrderBy(key, desc));
            } else {
                break;
            }
        }
        self.expect_keyword("return")?;
        let ret = self.single_expr()?;
        Ok(Expr::Flwor(clauses, Box::new(ret)))
    }

    fn if_expr(&mut self) -> Result<Expr, ParseError> {
        self.expect_keyword("if")?;
        self.expect_punct("(")?;
        let cond = self.expr()?;
        self.expect_punct(")")?;
        self.expect_keyword("then")?;
        let then = self.single_expr()?;
        self.expect_keyword("else")?;
        let els = self.single_expr()?;
        Ok(Expr::If(Box::new(cond), Box::new(then), Box::new(els)))
    }

    fn some_expr(&mut self) -> Result<Expr, ParseError> {
        let every = if self.eat_keyword("every") {
            true
        } else {
            self.expect_keyword("some")?;
            false
        };
        let var = self.expect_var()?;
        self.expect_keyword("in")?;
        let source = self.single_expr()?;
        self.expect_keyword("satisfies")?;
        let satisfies = self.single_expr()?;
        Ok(Expr::Some { var, source: Box::new(source), satisfies: Box::new(satisfies), every })
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.and_expr()?;
        while self.eat_keyword("or") {
            let right = self.and_expr()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.cmp_expr()?;
        while self.eat_keyword("and") {
            let right = self.cmp_expr()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let left = self.add_expr()?;
        let op = match self.peek() {
            TokenKind::Punct("=") => CmpOp::Eq,
            TokenKind::Punct("!=") => CmpOp::Ne,
            TokenKind::Punct("<") => CmpOp::Lt,
            TokenKind::Punct("<=") => CmpOp::Le,
            TokenKind::Punct(">") => CmpOp::Gt,
            TokenKind::Punct(">=") => CmpOp::Ge,
            _ => return Ok(left),
        };
        self.bump();
        let right = self.add_expr()?;
        Ok(Expr::Cmp(op, Box::new(left), Box::new(right)))
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Punct("+") => ArithOp::Add,
                TokenKind::Punct("-") => ArithOp::Sub,
                _ => return Ok(left),
            };
            self.bump();
            let right = self.mul_expr()?;
            left = Expr::Arith(op, Box::new(left), Box::new(right));
        }
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.union_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Punct("*") => ArithOp::Mul,
                TokenKind::Keyword(k) if k == "div" => ArithOp::Div,
                TokenKind::Keyword(k) if k == "mod" => ArithOp::Mod,
                _ => return Ok(left),
            };
            self.bump();
            let right = self.union_expr()?;
            left = Expr::Arith(op, Box::new(left), Box::new(right));
        }
    }

    fn union_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.unary_expr()?;
        while self.eat_punct("|") {
            let right = self.unary_expr()?;
            left = Expr::Union(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat_punct("-") {
            // Self-recursion that bypasses single_expr: count it too, or a
            // run of 10k `-` signs would still blow the stack.
            self.enter()?;
            let inner = self.unary_expr();
            self.leave();
            Ok(Expr::Neg(Box::new(inner?)))
        } else {
            self.postfix_expr()
        }
    }

    /// Primary expression possibly continued by a path tail.
    fn postfix_expr(&mut self) -> Result<Expr, ParseError> {
        // Rooted paths: `/a/b` or `//a`.
        if matches!(self.peek(), TokenKind::Punct("/") | TokenKind::Punct("//")) {
            let steps = self.steps()?;
            return Ok(Expr::Path(PathExpr { root: PathRoot::Document, steps }));
        }
        let primary = self.primary_expr()?;
        if matches!(self.peek(), TokenKind::Punct("/") | TokenKind::Punct("//")) {
            let steps = self.steps()?;
            let root = match primary {
                Expr::Var(v) => PathRoot::Var(v),
                Expr::Call(ref name, ref args) if name == "document" && args.len() == 1 => {
                    PathRoot::Document
                }
                other => {
                    return self
                        .err(format!("path steps cannot follow this expression: {other:?}"))
                }
            };
            return Ok(Expr::Path(PathExpr { root, steps }));
        }
        Ok(primary)
    }

    /// A chain of `/step` or `//step`.
    fn steps(&mut self) -> Result<Vec<Step>, ParseError> {
        let mut steps = Vec::new();
        loop {
            let axis = if self.eat_punct("//") {
                Axis::Descendant
            } else if self.eat_punct("/") {
                Axis::Child
            } else {
                break;
            };
            steps.push(self.step(axis)?);
        }
        Ok(steps)
    }

    fn step(&mut self, axis: Axis) -> Result<Step, ParseError> {
        if self.eat_punct("..") {
            return Ok(Step { axis: Axis::Parent, test: NodeTest::AnyElement, predicates: vec![] });
        }
        let test = if self.eat_punct("@") {
            match self.bump() {
                TokenKind::Name(n) => NodeTest::Attr(n),
                TokenKind::Keyword(k) => NodeTest::Attr(k),
                other => return self.err(format!("expected attribute name, found {other}")),
            }
        } else if self.eat_punct("*") {
            NodeTest::AnyElement
        } else {
            match self.bump() {
                TokenKind::Name(n) if n == "text" && self.eat_punct("(") => {
                    self.expect_punct(")")?;
                    NodeTest::Text
                }
                TokenKind::Name(n) => NodeTest::Tag(n),
                // Allow keywords as element names (`type`, `interval`…).
                TokenKind::Keyword(k) => NodeTest::Tag(k),
                other => return self.err(format!("expected step, found {other}")),
            }
        };
        let mut predicates = Vec::new();
        while self.eat_punct("[") {
            let pred = match self.peek().clone() {
                TokenKind::Num(n) if matches!(self.peek2(), TokenKind::Punct("]")) => {
                    self.bump();
                    StepPredicate::Position(n as i64)
                }
                TokenKind::Name(f)
                    if f == "last"
                        && matches!(self.peek2(), TokenKind::Punct("(")) =>
                {
                    self.bump();
                    self.expect_punct("(")?;
                    self.expect_punct(")")?;
                    StepPredicate::Last
                }
                _ => StepPredicate::Filter(Box::new(self.expr()?)),
            };
            self.expect_punct("]")?;
            predicates.push(pred);
        }
        Ok(Step { axis, test, predicates })
    }

    fn primary_expr(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            TokenKind::Var(v) => {
                self.bump();
                Ok(Expr::Var(v))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(Expr::Str(s))
            }
            TokenKind::Num(n) => {
                self.bump();
                Ok(Expr::Num(n))
            }
            TokenKind::Punct("(") => {
                self.bump();
                if self.eat_punct(")") {
                    return Ok(Expr::Seq(Vec::new()));
                }
                let inner = self.expr()?;
                self.expect_punct(")")?;
                Ok(inner)
            }
            TokenKind::Punct("<") => self.constructor(),
            TokenKind::Punct("@") => {
                // Relative attribute path: context-rooted.
                self.bump();
                let name = match self.bump() {
                    TokenKind::Name(n) => n,
                    TokenKind::Keyword(k) => k,
                    other => return self.err(format!("expected attribute name, found {other}")),
                };
                let mut steps =
                    vec![Step { axis: Axis::Child, test: NodeTest::Attr(name), predicates: vec![] }];
                steps.extend(self.steps()?);
                Ok(Expr::Path(PathExpr { root: PathRoot::Context, steps }))
            }
            TokenKind::Punct(".") => {
                self.bump();
                let steps = self.steps()?;
                Ok(Expr::Path(PathExpr { root: PathRoot::Context, steps }))
            }
            TokenKind::Name(name) => {
                self.bump();
                if self.eat_punct("(") {
                    // Function call.
                    let mut args = Vec::new();
                    if !self.eat_punct(")") {
                        loop {
                            args.push(self.single_expr()?);
                            if self.eat_punct(")") {
                                break;
                            }
                            self.expect_punct(",")?;
                        }
                    }
                    Ok(Expr::Call(name.to_ascii_lowercase(), args))
                } else if name == "text" {
                    self.err("text() requires parentheses")
                } else {
                    // Relative element path (context-rooted), e.g. inside a
                    // predicate: `[price/text() > 40]`.
                    let mut steps = vec![Step {
                        axis: Axis::Child,
                        test: NodeTest::Tag(name),
                        predicates: self.step_predicates()?,
                    }];
                    steps.extend(self.steps()?);
                    Ok(Expr::Path(PathExpr { root: PathRoot::Context, steps }))
                }
            }
            other => self.err(format!("unexpected {other}")),
        }
    }

    fn step_predicates(&mut self) -> Result<Vec<StepPredicate>, ParseError> {
        let mut predicates = Vec::new();
        while self.eat_punct("[") {
            let pred = match self.peek().clone() {
                TokenKind::Num(n) if matches!(self.peek2(), TokenKind::Punct("]")) => {
                    self.bump();
                    StepPredicate::Position(n as i64)
                }
                _ => StepPredicate::Filter(Box::new(self.expr()?)),
            };
            self.expect_punct("]")?;
            predicates.push(pred);
        }
        Ok(predicates)
    }

    // ---- element constructors -------------------------------------------

    fn constructor(&mut self) -> Result<Expr, ParseError> {
        // Nested constructors recurse directly (child `<` → constructor)
        // without passing through single_expr; bound them here.
        self.enter()?;
        let out = self.constructor_inner();
        self.leave();
        out
    }

    fn constructor_inner(&mut self) -> Result<Expr, ParseError> {
        self.expect_punct("<")?;
        let tag = match self.bump() {
            TokenKind::Name(n) => n,
            TokenKind::Keyword(k) => k,
            other => return self.err(format!("expected element name, found {other}")),
        };
        let mut attrs = Vec::new();
        loop {
            match self.peek().clone() {
                TokenKind::Punct("/>") => {
                    self.bump();
                    let tag = tag.into();
                    return Ok(Expr::Elem(ElemCtor { tag, attrs, children: Vec::new() }));
                }
                TokenKind::Punct(">") => {
                    self.bump();
                    break;
                }
                TokenKind::Name(an) => {
                    self.bump();
                    self.expect_punct("=")?;
                    let value = match self.peek().clone() {
                        TokenKind::Str(s) => {
                            self.bump();
                            Expr::Str(s)
                        }
                        TokenKind::Punct("{") => {
                            self.bump();
                            let e = self.expr()?;
                            self.expect_punct("}")?;
                            e
                        }
                        // Paper-style bare expression: name=$p/name/text()
                        _ => self.postfix_expr()?,
                    };
                    attrs.push((an.into(), value));
                }
                TokenKind::Keyword(an) => {
                    self.bump();
                    self.expect_punct("=")?;
                    let value = match self.peek().clone() {
                        TokenKind::Str(s) => {
                            self.bump();
                            Expr::Str(s)
                        }
                        TokenKind::Punct("{") => {
                            self.bump();
                            let e = self.expr()?;
                            self.expect_punct("}")?;
                            e
                        }
                        _ => self.postfix_expr()?,
                    };
                    attrs.push((an.into(), value));
                }
                other => return self.err(format!("unexpected {other} in start tag")),
            }
        }
        // Content until `</tag>`.
        let mut children = Vec::new();
        loop {
            match self.peek().clone() {
                TokenKind::Punct("</") => {
                    self.bump();
                    match self.bump() {
                        TokenKind::Name(n) if n == tag => {}
                        TokenKind::Keyword(k) if k == tag => {}
                        other => {
                            return self.err(format!(
                                "mismatched constructor close: expected </{tag}>, found {other}"
                            ))
                        }
                    }
                    self.expect_punct(">")?;
                    return Ok(Expr::Elem(ElemCtor { tag: tag.into(), attrs, children }));
                }
                TokenKind::Punct("{") => {
                    self.bump();
                    let e = self.expr()?;
                    self.expect_punct("}")?;
                    children.push(e);
                }
                TokenKind::Punct("<") => children.push(self.constructor()?),
                TokenKind::Var(_) => children.push(self.postfix_expr()?),
                TokenKind::Str(s) => {
                    self.bump();
                    children.push(Expr::Str(s));
                }
                TokenKind::Name(w) => {
                    // Bare word treated as literal text (paper-style).
                    self.bump();
                    children.push(Expr::Str(w));
                }
                TokenKind::Eof => return self.err(format!("unterminated constructor <{tag}>")),
                other => return self.err(format!("unexpected {other} in element content")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_flwor() {
        let e = parse(
            r#"FOR $b IN document("auction.xml")/site/people/person
               WHERE $b/@id = "person0"
               RETURN $b/name/text()"#,
        )
        .unwrap();
        let Expr::Flwor(clauses, ret) = e else { panic!("not flwor") };
        assert_eq!(clauses.len(), 2);
        let Clause::For(v, Expr::Path(p)) = &clauses[0] else { panic!() };
        assert_eq!(v, "b");
        assert_eq!(p.root, PathRoot::Document);
        assert_eq!(p.steps.len(), 3);
        let Clause::Where(Expr::Cmp(CmpOp::Eq, l, _)) = &clauses[1] else { panic!() };
        assert!(matches!(**l, Expr::Path(_)));
        assert!(matches!(*ret, Expr::Path(_)));
    }

    #[test]
    fn parses_descendant_and_predicates() {
        let e = parse(r#"/site//item[@id = "item3"]/name"#).unwrap();
        let Expr::Path(p) = e else { panic!() };
        assert_eq!(p.steps[1].axis, Axis::Descendant);
        assert_eq!(p.steps[1].predicates.len(), 1);
    }

    #[test]
    fn parses_positional_predicates() {
        let e = parse("$b/bidder[1]/increase/text()").unwrap();
        let Expr::Path(p) = e else { panic!() };
        assert_eq!(p.steps[0].predicates, vec![StepPredicate::Position(1)]);
        let e = parse("$b/bidder[last()]").unwrap();
        let Expr::Path(p) = e else { panic!() };
        assert_eq!(p.steps[0].predicates, vec![StepPredicate::Last]);
    }

    #[test]
    fn parses_constructor() {
        let e = parse(r#"<item name={$i/name/text()}>{ $i/description }</item>"#).unwrap();
        let Expr::Elem(c) = e else { panic!() };
        assert_eq!(&*c.tag, "item");
        assert_eq!(c.attrs.len(), 1);
        assert_eq!(c.children.len(), 1);
    }

    #[test]
    fn parses_paper_style_bare_attr() {
        // Q9's shorthand: <person name=$p/name/text()> $a </person>
        let e = parse("<person name=$p/name/text()> $a </person>").unwrap();
        let Expr::Elem(c) = e else { panic!() };
        assert!(matches!(c.attrs[0].1, Expr::Path(_)));
        assert!(matches!(c.children[0], Expr::Var(_)));
    }

    #[test]
    fn parses_nested_flwor_and_functions() {
        let e = parse(
            r#"for $p in /site/people/person
               let $a := for $t in /site/closed_auctions/closed_auction
                         where $t/buyer/@person = $p/@id
                         return $t
               return <item person=$p/name/text()>{ count($a) }</item>"#,
        )
        .unwrap();
        assert!(matches!(e, Expr::Flwor(..)));
    }

    #[test]
    fn parses_arithmetic_precedence() {
        let e = parse("1 + 2 * 3").unwrap();
        let Expr::Arith(ArithOp::Add, _, r) = e else { panic!() };
        assert!(matches!(*r, Expr::Arith(ArithOp::Mul, ..)));
    }

    #[test]
    fn parses_quantifier_and_if() {
        parse("some $x in $s satisfies $x/text() = \"a\"").unwrap();
        parse("if (count($a) > 0) then $a else ()").unwrap();
    }

    #[test]
    fn parses_relative_paths_in_predicates() {
        let e = parse("/site/closed_auctions/closed_auction[price/text() >= 40]").unwrap();
        let Expr::Path(p) = e else { panic!() };
        let StepPredicate::Filter(f) = &p.steps[2].predicates[0] else { panic!() };
        let Expr::Cmp(CmpOp::Ge, l, _) = &**f else { panic!() };
        let Expr::Path(lp) = &**l else { panic!() };
        assert_eq!(lp.root, PathRoot::Context);
    }

    #[test]
    fn error_reporting() {
        assert!(parse("for $x in").is_err());
        assert!(parse("<a><b></a></b>").is_err());
        assert!(parse("$x/").is_err());
        assert!(parse("(1").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // 10k-deep variants of every direct-recursion path in the grammar:
        // parenthesised expressions, unary minus chains, nested step
        // predicates, and nested element constructors. Each must come back
        // as a ParseError naming the depth limit.
        let deep_parens = format!("{}1{}", "(".repeat(10_000), ")".repeat(10_000));
        let deep_minus = format!("{}1", "-".repeat(10_000));
        let deep_preds = format!("$x{}{}", "/a[b".repeat(10_000), "]".repeat(10_000));
        let deep_ctors = format!("{}{}", "<a>".repeat(10_000), "</a>".repeat(10_000));
        for src in [&deep_parens, &deep_minus, &deep_preds, &deep_ctors] {
            let err = parse(src).expect_err("pathological nesting must not parse");
            assert!(
                err.message.contains("nesting exceeds"),
                "wrong error for deep input: {}",
                err.message
            );
        }

        // Unbalanced deep input (no closers at all) is just as guarded.
        assert!(parse(&"(".repeat(10_000)).is_err());

        // Nesting below the cap still parses: the guard must not reject
        // real queries.
        let ok = format!("{}1{}", "(".repeat(MAX_EXPR_DEPTH - 2), ")".repeat(MAX_EXPR_DEPTH - 2));
        parse(&ok).expect("nesting below the cap parses");
    }

    #[test]
    fn parses_order_by() {
        let e = parse("for $x in /a/b order by $x/@k descending return $x").unwrap();
        let Expr::Flwor(clauses, _) = e else { panic!() };
        assert!(matches!(clauses[1], Clause::OrderBy(_, true)));
    }
}
