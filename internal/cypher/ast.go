package cypher

import (
	"sync/atomic"

	"repro/internal/value"
)

// Statement is a parsed query: a sequence of clauses executed as a pipeline
// over binding rows.
type Statement struct {
	Clauses []Clause
	Query   string // original text, for error reporting
	// Unions holds additional UNION branches; each contributes rows to the
	// same result. Column names must agree across branches.
	Unions []UnionBranch
	// Explain marks an EXPLAIN-prefixed query: Execute describes the
	// physical plan instead of running it.
	Explain bool

	// plan caches the compiled Plan; see Statement.Prepared.
	plan atomic.Pointer[Plan]
}

// UnionBranch is one UNION [ALL] arm of a statement.
type UnionBranch struct {
	All     bool
	Clauses []Clause
	pos     int // byte offset of the UNION keyword
}

// Clause is one step of the query pipeline.
type Clause interface{ clause() }

// MatchClause is MATCH or OPTIONAL MATCH with an optional WHERE.
type MatchClause struct {
	Optional bool
	Patterns []*PatternPart
	Where    Expr
	text     string // source text, WHERE included
}

// UnwindClause is UNWIND <expr> AS <var>.
type UnwindClause struct {
	List Expr
	Var  string
}

// WithClause projects, deduplicates, sorts and paginates intermediate rows.
type WithClause struct {
	Distinct bool
	Star     bool // WITH *
	Items    []*ReturnItem
	OrderBy  []*SortItem
	Skip     Expr
	Limit    Expr
	Where    Expr
}

// ReturnClause is the terminal projection.
type ReturnClause struct {
	Distinct bool
	Star     bool // RETURN *
	Items    []*ReturnItem
	OrderBy  []*SortItem
	Skip     Expr
	Limit    Expr
	pos      int // byte offset of the RETURN keyword
}

// CreateClause creates the nodes and relationships of its patterns.
type CreateClause struct {
	Patterns []*PatternPart
}

// MergeClause matches its pattern and creates it if absent, with optional
// ON CREATE SET / ON MATCH SET actions.
type MergeClause struct {
	Pattern     *PatternPart
	OnCreateSet []*SetItem
	OnMatchSet  []*SetItem
}

// DeleteClause deletes the entities its expressions evaluate to.
type DeleteClause struct {
	Detach bool
	Exprs  []Expr
}

// ForeachClause is FOREACH (v IN list | updateClause...): the nested write
// clauses run once per list element with v bound.
type ForeachClause struct {
	Var  string
	List Expr
	Body []Clause
}

// SetClause applies property and label assignments.
type SetClause struct {
	Items []*SetItem
}

// RemoveClause removes properties and labels.
type RemoveClause struct {
	Items []*RemoveItem
}

func (*MatchClause) clause()   {}
func (*UnwindClause) clause()  {}
func (*WithClause) clause()    {}
func (*ReturnClause) clause()  {}
func (*CreateClause) clause()  {}
func (*ForeachClause) clause() {}
func (*MergeClause) clause()   {}
func (*DeleteClause) clause()  {}
func (*SetClause) clause()     {}
func (*RemoveClause) clause()  {}

// ReturnItem is one projection item, expr [AS alias].
type ReturnItem struct {
	Expr  Expr
	Alias string // empty means use the expression text
	Text  string // source text of the expression
}

// SortItem is one ORDER BY key.
type SortItem struct {
	Expr Expr
	Desc bool
}

// SetItemKind distinguishes the forms of a SET item.
type SetItemKind int

// SET item forms.
const (
	SetProp       SetItemKind = iota // v.key = expr
	SetLabels                        // v:Label1:Label2
	SetAllProps                      // v = {map} (replace)
	SetMergeProps                    // v += {map}
)

// SetItem is one assignment in a SET clause (or in MERGE ON CREATE/MATCH).
type SetItem struct {
	Kind   SetItemKind
	Target string
	Key    string
	Labels []string
	Value  Expr
}

// RemoveItem is one removal in a REMOVE clause: v.key or v:Label.
type RemoveItem struct {
	Target string
	Key    string   // non-empty for property removal
	Labels []string // non-empty for label removal
}

// Direction of a relationship pattern in query text.
type PatternDirection int

// Pattern directions: (a)-[]->(b), (a)<-[]-(b), (a)-[]-(b).
const (
	DirRight PatternDirection = iota
	DirLeft
	DirBoth
)

// PatternPart is one comma-separated path pattern: a chain of node patterns
// joined by relationship patterns. len(Nodes) == len(Rels)+1.
type PatternPart struct {
	Var   string // optional path variable (parsed, bound to a list of entities)
	Nodes []*NodePattern
	Rels  []*RelPattern
}

// NodePattern is (var:Label1:Label2 {props}).
type NodePattern struct {
	Var    string
	Labels []string
	Props  map[string]Expr
	pos    int
}

// RelPattern is -[var:T1|T2 *min..max {props}]-> (or <-, or undirected).
type RelPattern struct {
	Var     string
	Types   []string
	Props   map[string]Expr
	Dir     PatternDirection
	VarHops bool // * present
	MinHops int  // default 1
	MaxHops int  // -1 = unbounded
	pos     int
}

// ---- Expressions ----

// Expr is an expression AST node.
type Expr interface{ exprNode() }

// Literal is a constant value.
type Literal struct{ Val value.Value }

// Variable references a bound name.
type Variable struct {
	Name string
	pos  int
}

// Param references a query parameter $name.
type Param struct{ Name string }

// PropAccess is expr.key.
type PropAccess struct {
	X   Expr
	Key string
}

// IndexExpr is expr[idx] (list index or map key).
type IndexExpr struct {
	X   Expr
	Idx Expr
}

// SliceExpr is expr[from..to]; From or To may be nil.
type SliceExpr struct {
	X    Expr
	From Expr
	To   Expr
}

// UnaryOp codes.
type UnaryOpKind int

// Unary operators.
const (
	OpNeg UnaryOpKind = iota
	OpNot
	OpIsNull
	OpIsNotNull
)

// UnaryOp is a unary operation.
type UnaryOp struct {
	Op UnaryOpKind
	X  Expr
}

// BinaryOp codes.
type BinaryOpKind int

// Binary operators.
const (
	OpAdd BinaryOpKind = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpPow
	OpEq
	OpNeq
	OpLt
	OpGt
	OpLte
	OpGte
	OpAnd
	OpOr
	OpXor
	OpIn
	OpStartsWith
	OpEndsWith
	OpContains
	OpRegex
)

// BinaryOp is a binary operation.
type BinaryOp struct {
	Op   BinaryOpKind
	L, R Expr
	pos  int
}

// FuncCall is fn(args), fn(DISTINCT arg), or count(*).
type FuncCall struct {
	Name     string // lower-cased
	Distinct bool
	Star     bool
	Args     []Expr
	def      *funcDef // the function-table row the parser resolved Name to
	pos      int
}

// CaseExpr covers both simple (CASE test WHEN v THEN r) and searched
// (CASE WHEN cond THEN r) forms.
type CaseExpr struct {
	Test  Expr // nil for searched form
	Whens []CaseWhen
	Else  Expr // nil means NULL
}

// CaseWhen is one WHEN ... THEN ... arm.
type CaseWhen struct {
	Cond Expr
	Then Expr
}

// ListLit is [e1, e2, ...].
type ListLit struct{ Elems []Expr }

// MapLit is {k1: e1, ...}.
type MapLit struct {
	Keys []string
	Vals []Expr
}

// ListComp is [v IN list WHERE cond | proj].
type ListComp struct {
	Var   string
	List  Expr
	Where Expr // may be nil
	Proj  Expr // may be nil (identity)
}

// ListPredicateKind distinguishes the quantified list predicates.
type ListPredicateKind int

// Quantifiers: all(...), any(...), none(...), single(...).
const (
	QuantAll ListPredicateKind = iota
	QuantAny
	QuantNone
	QuantSingle
)

// ListPredicate is all/any/none/single(v IN list WHERE cond).
type ListPredicate struct {
	Kind  ListPredicateKind
	Var   string
	List  Expr
	Where Expr
}

// ReduceExpr is reduce(acc = init, v IN list | expr).
type ReduceExpr struct {
	Acc  string
	Init Expr
	Var  string
	List Expr
	Body Expr
}

// PatternExpr is a path pattern used as a predicate inside an expression
// (e.g. WHERE (n)-[:HasEffect]->(:Effect)); it evaluates to TRUE if at
// least one match exists. The EXISTS(pattern) function parses to this too.
type PatternExpr struct {
	Pattern *PatternPart
}

func (*Literal) exprNode()       {}
func (*Variable) exprNode()      {}
func (*Param) exprNode()         {}
func (*PropAccess) exprNode()    {}
func (*IndexExpr) exprNode()     {}
func (*SliceExpr) exprNode()     {}
func (*UnaryOp) exprNode()       {}
func (*BinaryOp) exprNode()      {}
func (*FuncCall) exprNode()      {}
func (*CaseExpr) exprNode()      {}
func (*ListLit) exprNode()       {}
func (*MapLit) exprNode()        {}
func (*ListComp) exprNode()      {}
func (*ListPredicate) exprNode() {}
func (*ReduceExpr) exprNode()    {}
func (*PatternExpr) exprNode()   {}

// walkExpr is the one recursion over the expression AST. It calls visit for
// e and then, unless visit returned false, for each sub-expression in source
// order: operands, arguments, CASE arms, list and map elements, the parts of
// comprehensions, quantifiers and reduce, and the property maps of a pattern
// predicate's nodes and relationships. body is true for the root of a body
// evaluated per list element under a variable the enclosing expression binds
// (a comprehension's WHERE and projection, a quantifier's WHERE, reduce's
// body), so a visitor can skip inner scopes.
func walkExpr(e Expr, visit func(x Expr, body bool) bool) {
	walkNode(e, false, visit)
}

func walkNode(e Expr, body bool, visit func(Expr, bool) bool) {
	if e == nil || !visit(e, body) {
		return
	}
	sub := func(xs ...Expr) {
		for _, x := range xs {
			walkNode(x, false, visit)
		}
	}
	inner := func(xs ...Expr) {
		for _, x := range xs {
			walkNode(x, true, visit)
		}
	}
	switch x := e.(type) {
	case *PropAccess:
		sub(x.X)
	case *IndexExpr:
		sub(x.X, x.Idx)
	case *SliceExpr:
		sub(x.X, x.From, x.To)
	case *UnaryOp:
		sub(x.X)
	case *BinaryOp:
		sub(x.L, x.R)
	case *FuncCall:
		sub(x.Args...)
	case *CaseExpr:
		sub(x.Test)
		for _, w := range x.Whens {
			sub(w.Cond, w.Then)
		}
		sub(x.Else)
	case *ListLit:
		sub(x.Elems...)
	case *MapLit:
		sub(x.Vals...)
	case *ListComp:
		sub(x.List)
		inner(x.Where, x.Proj)
	case *ListPredicate:
		sub(x.List)
		inner(x.Where)
	case *ReduceExpr:
		sub(x.Init, x.List)
		inner(x.Body)
	case *PatternExpr:
		for _, n := range x.Pattern.Nodes {
			for _, k := range sortedPropKeys(n.Props) {
				sub(n.Props[k])
			}
		}
		for _, r := range x.Pattern.Rels {
			for _, k := range sortedPropKeys(r.Props) {
				sub(r.Props[k])
			}
		}
	}
}
