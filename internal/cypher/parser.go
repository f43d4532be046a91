package cypher

import (
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/value"
)

type parser struct {
	src  string
	toks []token
	pos  int
}

// parseCount counts Parse/ParseExpr invocations process-wide. Plan-cache
// tests use it to prove the hot path performs zero parses in steady state.
var parseCount atomic.Int64

// ParseCount reports how many times this process has parsed a query or
// standalone expression.
func ParseCount() int64 { return parseCount.Load() }

// Parse parses a full statement (a clause pipeline). A leading EXPLAIN
// marks the statement so Execute describes the physical plan instead of
// running it.
func Parse(src string) (*Statement, error) {
	parseCount.Add(1)
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	stmt := &Statement{Query: src}
	// EXPLAIN is not a reserved keyword (it stays usable as an identifier);
	// a leading bare identifier can only be this prefix, since no clause
	// starts with one.
	if p.at(tokIdent) && strings.EqualFold(p.cur().text, "EXPLAIN") {
		p.advance()
		stmt.Explain = true
	}
	clauses, err := p.parseClauses()
	if err != nil {
		return nil, err
	}
	stmt.Clauses = clauses
	for p.atKeyword("UNION") {
		branch := UnionBranch{pos: p.cur().pos}
		p.advance()
		if p.at(tokIdent) && strings.EqualFold(p.cur().text, "ALL") {
			p.advance()
			branch.All = true
		}
		branch.Clauses, err = p.parseClauses()
		if err != nil {
			return nil, err
		}
		stmt.Unions = append(stmt.Unions, branch)
	}
	if p.at(tokSemi) {
		p.advance()
	}
	if !p.at(tokEOF) {
		return nil, p.errHere("unexpected %s after statement", p.cur())
	}
	if len(stmt.Clauses) == 0 {
		return nil, errAt(src, 0, "empty query")
	}
	if err := validateClauseOrder(src, stmt.Clauses); err != nil {
		return nil, err
	}
	for _, b := range stmt.Unions {
		if err := validateClauseOrder(src, b.Clauses); err != nil {
			return nil, err
		}
		if len(b.Clauses) == 0 {
			return nil, errAt(src, b.pos, "empty UNION branch")
		}
		if _, ok := b.Clauses[len(b.Clauses)-1].(*ReturnClause); !ok {
			return nil, errAt(src, b.pos, "every UNION branch must end in RETURN")
		}
	}
	if len(stmt.Unions) > 0 {
		if _, ok := stmt.Clauses[len(stmt.Clauses)-1].(*ReturnClause); !ok {
			return nil, errAt(src, stmt.Unions[0].pos, "every UNION branch must end in RETURN")
		}
	}
	return stmt, nil
}

// parseClauses parses a clause pipeline up to EOF, ';' or UNION.
func (p *parser) parseClauses() ([]Clause, error) {
	var out []Clause
	for !p.at(tokEOF) && !p.at(tokSemi) && !p.atKeyword("UNION") {
		cl, err := p.parseClause()
		if err != nil {
			return nil, err
		}
		out = append(out, cl)
	}
	return out, nil
}

// ParseExpr parses a standalone expression (used for rule guards).
func ParseExpr(src string) (Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	parseCount.Add(1)
	p := &parser{src: src, toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF) {
		return nil, p.errHere("unexpected %s after expression", p.cur())
	}
	return e, nil
}

func validateClauseOrder(src string, clauses []Clause) error {
	for i, cl := range clauses {
		if r, ok := cl.(*ReturnClause); ok && i != len(clauses)-1 {
			return errAt(src, r.pos, "RETURN must be the final clause")
		}
		var preds []Expr
		switch c := cl.(type) {
		case *MatchClause:
			preds = append(preds, c.Where)
		case *WithClause:
			preds = append(preds, c.Where)
		case *UnwindClause:
			preds = append(preds, c.List)
		}
		for _, p := range preds {
			if aggs := collectAggregates(p); len(aggs) > 0 {
				return errAt(src, aggs[0].pos,
					"aggregate function %s() is not allowed in this context", aggs[0].Name)
			}
		}
	}
	return nil
}

func (p *parser) cur() token { return p.toks[p.pos] }
func (p *parser) advance()   { p.pos++ }
func (p *parser) at(k tokenKind) bool {
	return p.toks[p.pos].kind == k
}

func (p *parser) atKeyword(kw string) bool {
	t := p.cur()
	return t.kind == tokKeyword && strings.EqualFold(t.text, kw)
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.atKeyword(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errHere("expected %s, found %s", kw, p.cur())
	}
	return nil
}

func (p *parser) expect(k tokenKind, what string) (token, error) {
	if !p.at(k) {
		return token{}, p.errHere("expected %s, found %s", what, p.cur())
	}
	t := p.cur()
	p.advance()
	return t, nil
}

func (p *parser) errHere(format string, args ...any) error {
	return errAt(p.src, p.cur().pos, format, args...)
}

// symbolName accepts an identifier or a keyword used as a name (labels,
// property keys and relationship types may collide with keywords).
func (p *parser) symbolName() (string, error) {
	t := p.cur()
	if t.kind == tokIdent {
		p.advance()
		return t.text, nil
	}
	if t.kind == tokKeyword {
		p.advance()
		return t.text, nil
	}
	return "", p.errHere("expected name, found %s", t)
}

func (p *parser) parseClause() (Clause, error) {
	t := p.cur()
	if t.kind != tokKeyword {
		return nil, p.errHere("expected clause keyword, found %s", t)
	}
	switch strings.ToUpper(t.text) {
	case "MATCH", "OPTIONAL":
		return p.parseMatch()
	case "UNWIND":
		p.advance()
		return p.parseUnwind()
	case "WITH":
		p.advance()
		return p.parseWith()
	case "RETURN":
		pos := t.pos
		p.advance()
		r, err := p.parseReturn()
		if err != nil {
			return nil, err
		}
		r.pos = pos
		return r, nil
	case "CREATE":
		p.advance()
		pats, err := p.parsePatternList()
		if err != nil {
			return nil, err
		}
		return &CreateClause{Patterns: pats}, nil
	case "MERGE":
		p.advance()
		return p.parseMerge()
	case "DELETE":
		p.advance()
		return p.parseDelete(false)
	case "DETACH":
		p.advance()
		if err := p.expectKeyword("DELETE"); err != nil {
			return nil, err
		}
		return p.parseDelete(true)
	case "SET":
		p.advance()
		items, err := p.parseSetItems()
		if err != nil {
			return nil, err
		}
		return &SetClause{Items: items}, nil
	case "REMOVE":
		p.advance()
		return p.parseRemove()
	case "FOREACH":
		p.advance()
		return p.parseForeach()
	default:
		return nil, p.errHere("unexpected keyword %s", t.text)
	}
}

// parseMatch parses [OPTIONAL] MATCH patterns [WHERE expr].
func (p *parser) parseMatch() (Clause, error) {
	start := p.cur().pos
	m := &MatchClause{Optional: p.acceptKeyword("OPTIONAL")}
	if err := p.expectKeyword("MATCH"); err != nil {
		return nil, err
	}
	var err error
	if m.Patterns, err = p.parsePatternList(); err != nil {
		return nil, err
	}
	if p.acceptKeyword("WHERE") {
		if m.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	m.text = p.src[start:min(p.cur().pos, len(p.src))]
	return m, nil
}

func (p *parser) parseUnwind() (Clause, error) {
	list, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	name, err := p.symbolName()
	if err != nil {
		return nil, err
	}
	return &UnwindClause{List: list, Var: name}, nil
}

func (p *parser) parseWith() (Clause, error) {
	w := &WithClause{}
	w.Distinct = p.acceptKeyword("DISTINCT")
	if p.at(tokStar) {
		p.advance()
		w.Star = true
		// WITH *, extra, items
		if p.at(tokComma) {
			p.advance()
			items, err := p.parseReturnItems()
			if err != nil {
				return nil, err
			}
			w.Items = items
		}
	} else {
		items, err := p.parseReturnItems()
		if err != nil {
			return nil, err
		}
		w.Items = items
	}
	var err error
	w.OrderBy, w.Skip, w.Limit, err = p.parseOrderSkipLimit()
	if err != nil {
		return nil, err
	}
	if p.acceptKeyword("WHERE") {
		w.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (p *parser) parseReturn() (*ReturnClause, error) {
	r := &ReturnClause{}
	r.Distinct = p.acceptKeyword("DISTINCT")
	if p.at(tokStar) {
		p.advance()
		r.Star = true
		if p.at(tokComma) {
			p.advance()
			items, err := p.parseReturnItems()
			if err != nil {
				return nil, err
			}
			r.Items = items
		}
	} else {
		items, err := p.parseReturnItems()
		if err != nil {
			return nil, err
		}
		r.Items = items
	}
	var err error
	r.OrderBy, r.Skip, r.Limit, err = p.parseOrderSkipLimit()
	if err != nil {
		return nil, err
	}
	return r, nil
}

func (p *parser) parseOrderSkipLimit() ([]*SortItem, Expr, Expr, error) {
	var orderBy []*SortItem
	var skip, limit Expr
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, nil, nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, nil, nil, err
			}
			item := &SortItem{Expr: e}
			if p.acceptKeyword("DESC") || p.acceptKeyword("DESCENDING") {
				item.Desc = true
			} else if p.acceptKeyword("ASC") || p.acceptKeyword("ASCENDING") {
				// ascending is the default
			}
			orderBy = append(orderBy, item)
			if !p.at(tokComma) {
				break
			}
			p.advance()
		}
	}
	if p.acceptKeyword("SKIP") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, nil, nil, err
		}
		skip = e
	}
	if p.acceptKeyword("LIMIT") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, nil, nil, err
		}
		limit = e
	}
	return orderBy, skip, limit, nil
}

func (p *parser) parseReturnItems() ([]*ReturnItem, error) {
	var items []*ReturnItem
	for {
		start := p.cur().pos
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		end := p.cur().pos
		text := strings.TrimSpace(p.src[start:min(end, len(p.src))])
		item := &ReturnItem{Expr: e, Text: text}
		if p.acceptKeyword("AS") {
			alias, err := p.symbolName()
			if err != nil {
				return nil, err
			}
			item.Alias = alias
		}
		items = append(items, item)
		if !p.at(tokComma) {
			return items, nil
		}
		p.advance()
	}
}

func (p *parser) parseMerge() (Clause, error) {
	pat, err := p.parsePatternPart()
	if err != nil {
		return nil, err
	}
	m := &MergeClause{Pattern: pat}
	for p.atKeyword("ON") {
		p.advance()
		switch {
		case p.acceptKeyword("CREATE"):
			if err := p.expectKeyword("SET"); err != nil {
				return nil, err
			}
			items, err := p.parseSetItems()
			if err != nil {
				return nil, err
			}
			m.OnCreateSet = append(m.OnCreateSet, items...)
		case p.acceptKeyword("MATCH"):
			if err := p.expectKeyword("SET"); err != nil {
				return nil, err
			}
			items, err := p.parseSetItems()
			if err != nil {
				return nil, err
			}
			m.OnMatchSet = append(m.OnMatchSet, items...)
		default:
			return nil, p.errHere("expected CREATE or MATCH after ON")
		}
	}
	return m, nil
}

func (p *parser) parseDelete(detach bool) (Clause, error) {
	var exprs []Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, e)
		if !p.at(tokComma) {
			break
		}
		p.advance()
	}
	return &DeleteClause{Detach: detach, Exprs: exprs}, nil
}

func (p *parser) parseSetItems() ([]*SetItem, error) {
	var items []*SetItem
	for {
		item, err := p.parseSetItem()
		if err != nil {
			return nil, err
		}
		items = append(items, item)
		if !p.at(tokComma) {
			return items, nil
		}
		p.advance()
	}
}

func (p *parser) parseSetItem() (*SetItem, error) {
	name, err := p.symbolName()
	if err != nil {
		return nil, err
	}
	switch {
	case p.at(tokDot):
		p.advance()
		key, err := p.symbolName()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokEq, "="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &SetItem{Kind: SetProp, Target: name, Key: key, Value: val}, nil
	case p.at(tokColon):
		var labels []string
		for p.at(tokColon) {
			p.advance()
			l, err := p.symbolName()
			if err != nil {
				return nil, err
			}
			labels = append(labels, l)
		}
		return &SetItem{Kind: SetLabels, Target: name, Labels: labels}, nil
	case p.at(tokPlusEq):
		p.advance()
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &SetItem{Kind: SetMergeProps, Target: name, Value: val}, nil
	case p.at(tokEq):
		p.advance()
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &SetItem{Kind: SetAllProps, Target: name, Value: val}, nil
	default:
		return nil, p.errHere("expected '.', ':', '=' or '+=' in SET item")
	}
}

func (p *parser) parseRemove() (Clause, error) {
	var items []*RemoveItem
	for {
		name, err := p.symbolName()
		if err != nil {
			return nil, err
		}
		item := &RemoveItem{Target: name}
		switch {
		case p.at(tokDot):
			p.advance()
			key, err := p.symbolName()
			if err != nil {
				return nil, err
			}
			item.Key = key
		case p.at(tokColon):
			for p.at(tokColon) {
				p.advance()
				l, err := p.symbolName()
				if err != nil {
					return nil, err
				}
				item.Labels = append(item.Labels, l)
			}
		default:
			return nil, p.errHere("expected '.' or ':' in REMOVE item")
		}
		items = append(items, item)
		if !p.at(tokComma) {
			return &RemoveClause{Items: items}, nil
		}
		p.advance()
	}
}

func (p *parser) parseForeach() (Clause, error) {
	if _, err := p.expect(tokLParen, "( after FOREACH"); err != nil {
		return nil, err
	}
	name, err := p.symbolName()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("IN"); err != nil {
		return nil, err
	}
	list, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPipe, "| in FOREACH"); err != nil {
		return nil, err
	}
	fe := &ForeachClause{Var: name, List: list}
	for !p.at(tokRParen) {
		if p.at(tokEOF) {
			return nil, p.errHere("unterminated FOREACH")
		}
		cl, err := p.parseClause()
		if err != nil {
			return nil, err
		}
		switch cl.(type) {
		case *CreateClause, *MergeClause, *SetClause, *RemoveClause, *DeleteClause, *ForeachClause:
		default:
			return nil, p.errHere("FOREACH bodies may only contain update clauses")
		}
		fe.Body = append(fe.Body, cl)
	}
	p.advance() // )
	return fe, nil
}

// ---- Patterns ----

func (p *parser) parsePatternList() ([]*PatternPart, error) {
	var parts []*PatternPart
	for {
		part, err := p.parsePatternPart()
		if err != nil {
			return nil, err
		}
		parts = append(parts, part)
		if !p.at(tokComma) {
			return parts, nil
		}
		p.advance()
	}
}

func (p *parser) parsePatternPart() (*PatternPart, error) {
	part := &PatternPart{}
	// Optional path variable: ident '=' '('
	if p.at(tokIdent) && p.pos+1 < len(p.toks) && p.toks[p.pos+1].kind == tokEq {
		part.Var = p.cur().text
		p.advance()
		p.advance()
	}
	n, err := p.parseNodePattern()
	if err != nil {
		return nil, err
	}
	part.Nodes = append(part.Nodes, n)
	for p.at(tokMinus) || p.at(tokArrowL) {
		rel, err := p.parseRelPattern()
		if err != nil {
			return nil, err
		}
		next, err := p.parseNodePattern()
		if err != nil {
			return nil, err
		}
		part.Rels = append(part.Rels, rel)
		part.Nodes = append(part.Nodes, next)
	}
	return part, nil
}

func (p *parser) parseNodePattern() (*NodePattern, error) {
	start, err := p.expect(tokLParen, "(")
	if err != nil {
		return nil, err
	}
	n := &NodePattern{pos: start.pos}
	if p.at(tokIdent) {
		n.Var = p.cur().text
		p.advance()
	}
	for p.at(tokColon) {
		p.advance()
		label, err := p.symbolName()
		if err != nil {
			return nil, err
		}
		n.Labels = append(n.Labels, label)
	}
	if p.at(tokLBrace) {
		props, err := p.parsePropMap()
		if err != nil {
			return nil, err
		}
		n.Props = props
	}
	if _, err := p.expect(tokRParen, ")"); err != nil {
		return nil, err
	}
	return n, nil
}

func (p *parser) parseRelPattern() (*RelPattern, error) {
	r := &RelPattern{Dir: DirBoth, MinHops: 1, MaxHops: 1, pos: p.cur().pos}
	leftArrow := false
	switch {
	case p.at(tokArrowL):
		leftArrow = true
		p.advance()
	case p.at(tokMinus):
		p.advance()
	default:
		return nil, p.errHere("expected relationship pattern")
	}
	if p.at(tokLBracket) {
		p.advance()
		if p.at(tokIdent) {
			r.Var = p.cur().text
			p.advance()
		}
		if p.at(tokColon) {
			for {
				p.advance() // ':' or '|'
				// allow both | and |: as alternation separators
				if p.at(tokColon) {
					p.advance()
				}
				typ, err := p.symbolName()
				if err != nil {
					return nil, err
				}
				r.Types = append(r.Types, typ)
				if !p.at(tokPipe) {
					break
				}
			}
		}
		if p.at(tokStar) {
			p.advance()
			r.VarHops = true
			r.MinHops = 1
			r.MaxHops = -1
			if p.at(tokInt) {
				n, err := strconv.Atoi(p.cur().text)
				if err != nil {
					return nil, p.errHere("bad hop count")
				}
				p.advance()
				r.MinHops = n
				r.MaxHops = n
				if p.at(tokDotDot) {
					p.advance()
					r.MaxHops = -1
					if p.at(tokInt) {
						m, err := strconv.Atoi(p.cur().text)
						if err != nil {
							return nil, p.errHere("bad hop count")
						}
						p.advance()
						r.MaxHops = m
					}
				}
			} else if p.at(tokDotDot) {
				p.advance()
				r.MinHops = 0
				if p.at(tokInt) {
					m, err := strconv.Atoi(p.cur().text)
					if err != nil {
						return nil, p.errHere("bad hop count")
					}
					p.advance()
					r.MaxHops = m
				}
			} else {
				r.MinHops = 1
				r.MaxHops = -1
			}
		}
		if p.at(tokLBrace) {
			props, err := p.parsePropMap()
			if err != nil {
				return nil, err
			}
			r.Props = props
		}
		if _, err := p.expect(tokRBracket, "]"); err != nil {
			return nil, err
		}
	}
	switch {
	case p.at(tokArrowR):
		if leftArrow {
			return nil, p.errHere("relationship cannot point both ways")
		}
		p.advance()
		r.Dir = DirRight
	case p.at(tokMinus):
		p.advance()
		if leftArrow {
			r.Dir = DirLeft
		} else {
			r.Dir = DirBoth
		}
	default:
		return nil, p.errHere("expected '->' or '-' to close relationship pattern")
	}
	return r, nil
}

func (p *parser) parsePropMap() (map[string]Expr, error) {
	if _, err := p.expect(tokLBrace, "{"); err != nil {
		return nil, err
	}
	props := make(map[string]Expr)
	if p.at(tokRBrace) {
		p.advance()
		return props, nil
	}
	for {
		var key string
		switch {
		case p.at(tokIdent) || p.at(tokKeyword):
			key = p.cur().text
			p.advance()
		case p.at(tokString):
			key = p.cur().text
			p.advance()
		default:
			return nil, p.errHere("expected property key")
		}
		if _, err := p.expect(tokColon, ":"); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		props[key] = val
		if p.at(tokComma) {
			p.advance()
			continue
		}
		if _, err := p.expect(tokRBrace, "}"); err != nil {
			return nil, err
		}
		return props, nil
	}
}

// ---- Expressions (precedence climbing) ----

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseXor()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("OR") {
		pos := p.cur().pos
		p.advance()
		r, err := p.parseXor()
		if err != nil {
			return nil, err
		}
		l = &BinaryOp{Op: OpOr, L: l, R: r, pos: pos}
	}
	return l, nil
}

func (p *parser) parseXor() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("XOR") {
		pos := p.cur().pos
		p.advance()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryOp{Op: OpXor, L: l, R: r, pos: pos}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("AND") {
		pos := p.cur().pos
		p.advance()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryOp{Op: OpAnd, L: l, R: r, pos: pos}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.atKeyword("NOT") {
		p.advance()
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryOp{Op: OpNot, X: x}, nil
	}
	return p.parseComparison()
}

var compOps = map[tokenKind]BinaryOpKind{
	tokEq: OpEq, tokNeq: OpNeq, tokLt: OpLt, tokGt: OpGt,
	tokLte: OpLte, tokGte: OpGte,
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAddSub()
	if err != nil {
		return nil, err
	}
	// Postfix predicates and (possibly chained) comparisons.
	var chain Expr
	prev := l
	for {
		t := p.cur()
		if op, ok := compOps[t.kind]; ok {
			p.advance()
			r, err := p.parseAddSub()
			if err != nil {
				return nil, err
			}
			cmp := &BinaryOp{Op: op, L: prev, R: r, pos: t.pos}
			if chain == nil {
				chain = Expr(cmp)
			} else {
				chain = &BinaryOp{Op: OpAnd, L: chain, R: cmp, pos: t.pos}
			}
			prev = r
			continue
		}
		break
	}
	if chain != nil {
		return chain, nil
	}
	// Other predicate forms bind at comparison level.
	switch {
	case p.atKeyword("IS"):
		p.advance()
		if p.acceptKeyword("NOT") {
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			return &UnaryOp{Op: OpIsNotNull, X: l}, nil
		}
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &UnaryOp{Op: OpIsNull, X: l}, nil
	case p.atKeyword("IN"):
		pos := p.cur().pos
		p.advance()
		r, err := p.parseAddSub()
		if err != nil {
			return nil, err
		}
		return &BinaryOp{Op: OpIn, L: l, R: r, pos: pos}, nil
	case p.atKeyword("STARTS"):
		pos := p.cur().pos
		p.advance()
		if err := p.expectKeyword("WITH"); err != nil {
			return nil, err
		}
		r, err := p.parseAddSub()
		if err != nil {
			return nil, err
		}
		return &BinaryOp{Op: OpStartsWith, L: l, R: r, pos: pos}, nil
	case p.atKeyword("ENDS"):
		pos := p.cur().pos
		p.advance()
		if err := p.expectKeyword("WITH"); err != nil {
			return nil, err
		}
		r, err := p.parseAddSub()
		if err != nil {
			return nil, err
		}
		return &BinaryOp{Op: OpEndsWith, L: l, R: r, pos: pos}, nil
	case p.atKeyword("CONTAINS"):
		pos := p.cur().pos
		p.advance()
		r, err := p.parseAddSub()
		if err != nil {
			return nil, err
		}
		return &BinaryOp{Op: OpContains, L: l, R: r, pos: pos}, nil
	case p.at(tokRegexEq):
		pos := p.cur().pos
		p.advance()
		r, err := p.parseAddSub()
		if err != nil {
			return nil, err
		}
		return &BinaryOp{Op: OpRegex, L: l, R: r, pos: pos}, nil
	}
	return l, nil
}

func (p *parser) parseAddSub() (Expr, error) {
	l, err := p.parseMulDiv()
	if err != nil {
		return nil, err
	}
	for p.at(tokPlus) || p.at(tokMinus) {
		t := p.cur()
		p.advance()
		r, err := p.parseMulDiv()
		if err != nil {
			return nil, err
		}
		op := OpAdd
		if t.kind == tokMinus {
			op = OpSub
		}
		l = &BinaryOp{Op: op, L: l, R: r, pos: t.pos}
	}
	return l, nil
}

func (p *parser) parseMulDiv() (Expr, error) {
	l, err := p.parsePow()
	if err != nil {
		return nil, err
	}
	for p.at(tokStar) || p.at(tokSlash) || p.at(tokPercent) {
		t := p.cur()
		p.advance()
		r, err := p.parsePow()
		if err != nil {
			return nil, err
		}
		var op BinaryOpKind
		switch t.kind {
		case tokStar:
			op = OpMul
		case tokSlash:
			op = OpDiv
		default:
			op = OpMod
		}
		l = &BinaryOp{Op: op, L: l, R: r, pos: t.pos}
	}
	return l, nil
}

func (p *parser) parsePow() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	if p.at(tokCaret) {
		t := p.cur()
		p.advance()
		r, err := p.parsePow() // right-associative
		if err != nil {
			return nil, err
		}
		return &BinaryOp{Op: OpPow, L: l, R: r, pos: t.pos}, nil
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	switch {
	case p.at(tokMinus):
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Constant-fold negative literals for nicer ASTs.
		if lit, ok := x.(*Literal); ok {
			if neg, err := negLiteral(lit.Val); err == nil {
				return &Literal{Val: neg}, nil
			}
		}
		return &UnaryOp{Op: OpNeg, X: x}, nil
	case p.at(tokPlus):
		p.advance()
		return p.parseUnary()
	}
	return p.parsePostfix()
}

func negLiteral(v value.Value) (value.Value, error) {
	return value.Neg(v)
}

func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(tokDot):
			p.advance()
			key, err := p.symbolName()
			if err != nil {
				return nil, err
			}
			x = &PropAccess{X: x, Key: key}
		case p.at(tokLBracket):
			p.advance()
			if p.at(tokDotDot) { // x[..to]
				p.advance()
				var to Expr
				if !p.at(tokRBracket) {
					to, err = p.parseExpr()
					if err != nil {
						return nil, err
					}
				}
				if _, err := p.expect(tokRBracket, "]"); err != nil {
					return nil, err
				}
				x = &SliceExpr{X: x, To: to}
				continue
			}
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if p.at(tokDotDot) {
				p.advance()
				var to Expr
				if !p.at(tokRBracket) {
					to, err = p.parseExpr()
					if err != nil {
						return nil, err
					}
				}
				if _, err := p.expect(tokRBracket, "]"); err != nil {
					return nil, err
				}
				x = &SliceExpr{X: x, From: idx, To: to}
				continue
			}
			if _, err := p.expect(tokRBracket, "]"); err != nil {
				return nil, err
			}
			x = &IndexExpr{X: x, Idx: idx}
		default:
			return x, nil
		}
	}
}

func (p *parser) parseAtom() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokInt:
		p.advance()
		var i int64
		var err error
		if strings.HasPrefix(t.text, "0x") || strings.HasPrefix(t.text, "0X") {
			i, err = strconv.ParseInt(t.text[2:], 16, 64)
		} else {
			i, err = strconv.ParseInt(t.text, 10, 64)
		}
		if err != nil {
			return nil, errAt(p.src, t.pos, "bad integer literal %q", t.text)
		}
		return &Literal{Val: value.Int(i)}, nil
	case tokFloat:
		p.advance()
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, errAt(p.src, t.pos, "bad float literal %q", t.text)
		}
		return &Literal{Val: value.Float(f)}, nil
	case tokString:
		p.advance()
		return &Literal{Val: value.Str(t.text)}, nil
	case tokParam:
		p.advance()
		return &Param{Name: t.text}, nil
	case tokKeyword:
		switch strings.ToUpper(t.text) {
		case "TRUE":
			p.advance()
			return &Literal{Val: value.Bool(true)}, nil
		case "FALSE":
			p.advance()
			return &Literal{Val: value.Bool(false)}, nil
		case "NULL":
			p.advance()
			return &Literal{Val: value.Null}, nil
		case "CASE":
			p.advance()
			return p.parseCase()
		case "EXISTS":
			p.advance()
			return p.parseExists(t.pos)
		case "COUNT", "NOT":
			// COUNT is not a keyword in our table; NOT handled earlier.
			return nil, p.errHere("unexpected keyword %s", t.text)
		default:
			return nil, p.errHere("unexpected keyword %s in expression", t.text)
		}
	case tokIdent:
		// Function call or variable.
		if p.pos+1 < len(p.toks) && p.toks[p.pos+1].kind == tokLParen {
			return p.parseFuncCall()
		}
		p.advance()
		return &Variable{Name: t.text, pos: t.pos}, nil
	case tokLBracket:
		return p.parseListAtom()
	case tokLBrace:
		return p.parseMapLit()
	case tokLParen:
		// Could be a parenthesized expression or a pattern expression.
		if pe, ok, err := p.tryParsePatternExpr(); err != nil {
			return nil, err
		} else if ok {
			return pe, nil
		}
		p.advance() // (
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, p.errHere("unexpected %s in expression", t)
}

// tryParsePatternExpr speculatively parses a pattern expression like
// (n)-[:R]->(:L {k: v}). It only commits when the parse succeeds and the
// pattern is more than a bare parenthesized variable.
func (p *parser) tryParsePatternExpr() (Expr, bool, error) {
	save := p.pos
	part, err := p.parsePatternPart()
	if err != nil {
		p.pos = save
		return nil, false, nil
	}
	if len(part.Rels) == 0 && len(part.Nodes) == 1 &&
		len(part.Nodes[0].Labels) == 0 && part.Nodes[0].Props == nil {
		// Just "(x)" — treat as parenthesized expression instead.
		p.pos = save
		return nil, false, nil
	}
	return &PatternExpr{Pattern: part}, true, nil
}

func (p *parser) parseExists(pos int) (Expr, error) {
	if _, err := p.expect(tokLParen, "( after EXISTS"); err != nil {
		return nil, err
	}
	// EXISTS(pattern) or EXISTS(expr.prop).
	save := p.pos
	if part, err := p.parsePatternPart(); err == nil && (len(part.Rels) > 0 || len(part.Nodes[0].Labels) > 0 || part.Nodes[0].Props != nil) {
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return &PatternExpr{Pattern: part}, nil
	}
	p.pos = save
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen, ")"); err != nil {
		return nil, err
	}
	return &UnaryOp{Op: OpIsNotNull, X: e}, nil
}

var quantifiers = map[string]ListPredicateKind{
	"all": QuantAll, "any": QuantAny, "none": QuantNone, "single": QuantSingle,
}

func (p *parser) parseFuncCall() (Expr, error) {
	name := p.cur()
	p.advance() // name
	p.advance() // (
	lower := strings.ToLower(name.text)
	if kind, isQuant := quantifiers[lower]; isQuant &&
		p.at(tokIdent) && p.pos+1 < len(p.toks) &&
		p.toks[p.pos+1].kind == tokKeyword && strings.EqualFold(p.toks[p.pos+1].text, "IN") {
		return p.parseListPredicate(kind)
	}
	if lower == "reduce" {
		return p.parseReduce()
	}
	def, ok := functions[lower]
	if !ok {
		return nil, errAt(p.src, name.pos, "unknown function %s()", name.text)
	}
	call := &FuncCall{Name: lower, def: def, pos: name.pos}
	if p.at(tokStar) {
		if !def.star {
			return nil, p.errHere("%s() does not take *", name.text)
		}
		p.advance()
		call.Star = true
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return call, nil
	}
	if p.atKeyword("DISTINCT") {
		if !def.distinct {
			return nil, p.errHere("%s() does not take DISTINCT", name.text)
		}
		p.advance()
		call.Distinct = true
	}
	for !p.at(tokRParen) {
		if len(call.Args) > 0 {
			if _, err := p.expect(tokComma, ", or )"); err != nil {
				return nil, err
			}
		}
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		call.Args = append(call.Args, arg)
	}
	p.advance() // )
	if !def.accepts(len(call.Args)) {
		return nil, errAt(p.src, name.pos, "wrong number of arguments to %s()", name.text)
	}
	return call, nil
}

func (p *parser) parseCase() (Expr, error) {
	c := &CaseExpr{}
	if !p.atKeyword("WHEN") {
		test, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Test = test
	}
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, CaseWhen{Cond: cond, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, p.errHere("CASE requires at least one WHEN")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return c, nil
}

// parseListPredicate parses the tail of all/any/none/single(v IN list
// WHERE cond); the opening parenthesis is already consumed.
func (p *parser) parseListPredicate(kind ListPredicateKind) (Expr, error) {
	v, err := p.symbolName()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("IN"); err != nil {
		return nil, err
	}
	list, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("WHERE"); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen, ")"); err != nil {
		return nil, err
	}
	return &ListPredicate{Kind: kind, Var: v, List: list, Where: cond}, nil
}

// parseReduce parses the tail of reduce(acc = init, v IN list | body); the
// opening parenthesis is already consumed.
func (p *parser) parseReduce() (Expr, error) {
	acc, err := p.symbolName()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokEq, "= in reduce()"); err != nil {
		return nil, err
	}
	init, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokComma, ", in reduce()"); err != nil {
		return nil, err
	}
	v, err := p.symbolName()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("IN"); err != nil {
		return nil, err
	}
	list, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPipe, "| in reduce()"); err != nil {
		return nil, err
	}
	body, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen, ")"); err != nil {
		return nil, err
	}
	return &ReduceExpr{Acc: acc, Init: init, Var: v, List: list, Body: body}, nil
}

func (p *parser) parseListAtom() (Expr, error) {
	p.advance() // [
	// List comprehension: [ident IN expr ...]
	if p.at(tokIdent) && p.pos+1 < len(p.toks) &&
		p.toks[p.pos+1].kind == tokKeyword && p.toks[p.pos+1].text == "IN" {
		name := p.cur().text
		p.advance()
		p.advance() // IN
		list, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		comp := &ListComp{Var: name, List: list}
		if p.acceptKeyword("WHERE") {
			w, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			comp.Where = w
		}
		if p.at(tokPipe) {
			p.advance()
			proj, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			comp.Proj = proj
		}
		if _, err := p.expect(tokRBracket, "]"); err != nil {
			return nil, err
		}
		return comp, nil
	}
	lit := &ListLit{}
	if p.at(tokRBracket) {
		p.advance()
		return lit, nil
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		lit.Elems = append(lit.Elems, e)
		if p.at(tokComma) {
			p.advance()
			continue
		}
		if _, err := p.expect(tokRBracket, "]"); err != nil {
			return nil, err
		}
		return lit, nil
	}
}

func (p *parser) parseMapLit() (Expr, error) {
	p.advance() // {
	m := &MapLit{}
	if p.at(tokRBrace) {
		p.advance()
		return m, nil
	}
	for {
		var key string
		switch {
		case p.at(tokIdent) || p.at(tokKeyword):
			key = p.cur().text
			p.advance()
		case p.at(tokString):
			key = p.cur().text
			p.advance()
		default:
			return nil, p.errHere("expected map key")
		}
		if _, err := p.expect(tokColon, ":"); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		m.Keys = append(m.Keys, key)
		m.Vals = append(m.Vals, val)
		if p.at(tokComma) {
			p.advance()
			continue
		}
		if _, err := p.expect(tokRBrace, "}"); err != nil {
			return nil, err
		}
		return m, nil
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
