package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"ldv/internal/sqlval"
)

// Parser converts token streams into statements.
type Parser struct {
	toks    []Token
	pos     int
	src     string
	nparams int // `?` placeholders seen so far; assigns 1-based Param indexes
}

// Parse parses a single SQL statement (an optional trailing semicolon is
// allowed).
func Parse(src string) (Statement, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks, src: src}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.acceptOp(";")
	if !p.atEOF() {
		return nil, p.errorf("unexpected trailing input starting at %q", p.peek().Text)
	}
	return stmt, nil
}

// ParseScript parses a semicolon-separated sequence of statements. Positional
// `?` placeholders are numbered across the whole script; the count is
// returned with the statements.
func ParseScript(src string) ([]Statement, int, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, 0, err
	}
	p := &Parser{toks: toks, src: src}
	var stmts []Statement
	for !p.atEOF() {
		if p.acceptOp(";") {
			continue
		}
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, 0, err
		}
		stmts = append(stmts, stmt)
		if !p.acceptOp(";") && !p.atEOF() {
			return nil, 0, p.errorf("expected ';' between statements, got %q", p.peek().Text)
		}
	}
	return stmts, p.nparams, nil
}

func (p *Parser) atEOF() bool { return p.pos >= len(p.toks) }

func (p *Parser) peek() Token {
	if p.atEOF() {
		return Token{Type: TokEOF}
	}
	return p.toks[p.pos]
}

func (p *Parser) next() Token {
	t := p.peek()
	if !p.atEOF() {
		p.pos++
	}
	return t
}

func (p *Parser) errorf(format string, args ...any) error {
	return fmt.Errorf("parse error: "+format, args...)
}

// acceptKeyword consumes the next token if it is the given keyword.
func (p *Parser) acceptKeyword(kw string) bool {
	t := p.peek()
	if t.Type == TokKeyword && t.Text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, got %q", kw, p.peek().Text)
	}
	return nil
}

func (p *Parser) acceptOp(op string) bool {
	t := p.peek()
	if t.Type == TokOp && t.Text == op {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errorf("expected %q, got %q", op, p.peek().Text)
	}
	return nil
}

// expectIdent consumes an identifier (keywords that commonly double as
// column names, like DATE, are also accepted).
func (p *Parser) expectIdent() (string, error) {
	t := p.peek()
	if t.Type == TokIdent {
		p.pos++
		return t.Text, nil
	}
	return "", p.errorf("expected identifier, got %q", t.Text)
}

func (p *Parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.Type != TokKeyword {
		return nil, p.errorf("expected statement keyword, got %q", t.Text)
	}
	switch t.Text {
	case "SELECT":
		return p.parseSelect()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "CREATE":
		return p.parseCreate()
	case "DROP":
		return p.parseDrop()
	case "COPY":
		return p.parseCopy()
	case "EXPLAIN":
		return p.parseExplain()
	case "VACUUM":
		return p.parseVacuum()
	case "REENACT":
		return p.parseReenact()
	case "BEGIN":
		p.next()
		p.acceptKeyword("TRANSACTION")
		return &Begin{}, nil
	case "COMMIT":
		p.next()
		p.acceptKeyword("TRANSACTION")
		return &Commit{}, nil
	case "ROLLBACK":
		p.next()
		p.acceptKeyword("TRANSACTION")
		return &Rollback{}, nil
	default:
		return nil, p.errorf("unsupported statement %q", t.Text)
	}
}

func (p *Parser) parseSelect() (*Select, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &Select{Limit: -1}
	sel.Provenance = p.acceptKeyword("PROVENANCE")
	sel.Distinct = p.acceptKeyword("DISTINCT")

	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.acceptOp(",") {
			break
		}
	}

	if p.acceptKeyword("FROM") {
		for {
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, ref)
			if !p.acceptOp(",") {
				break
			}
		}
		for {
			if p.acceptKeyword("INNER") {
				if err := p.expectKeyword("JOIN"); err != nil {
					return nil, err
				}
			} else if !p.acceptKeyword("JOIN") {
				break
			}
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.Joins = append(sel.Joins, JoinClause{Table: ref, On: on})
		}
		// AS OF directly after the FROM/JOIN section (the natural reading
		// position); the trailing position after LIMIT is also accepted.
		asof, err := p.tryAsOf()
		if err != nil {
			return nil, err
		}
		sel.AsOf = asof
	}

	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, g)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		if len(sel.GroupBy) == 0 {
			return nil, p.errorf("HAVING requires GROUP BY")
		}
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = h
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		t := p.next()
		if t.Type != TokNumber {
			return nil, p.errorf("expected LIMIT count, got %q", t.Text)
		}
		n, err := strconv.Atoi(t.Text)
		if err != nil || n < 0 {
			return nil, p.errorf("invalid LIMIT %q", t.Text)
		}
		sel.Limit = n
	}
	asof, err := p.tryAsOf()
	if err != nil {
		return nil, err
	}
	if asof != nil {
		if sel.AsOf != nil {
			return nil, p.errorf("duplicate AS OF clause")
		}
		sel.AsOf = asof
	}
	return sel, nil
}

// peekAsOf reports whether the next two tokens are the keywords AS OF — the
// lookahead that keeps `FROM t AS OF 5` from consuming OF as a table alias.
func (p *Parser) peekAsOf() bool {
	return p.peek().Type == TokKeyword && p.peek().Text == "AS" &&
		p.pos+1 < len(p.toks) && p.toks[p.pos+1].Type == TokKeyword &&
		p.toks[p.pos+1].Text == "OF"
}

// tryAsOf parses an optional AS OF <expr> clause, returning nil when the
// next tokens are not AS OF. The bound is an additive expression so ticks
// can be written as literals, parameters, or simple arithmetic.
func (p *Parser) tryAsOf() (Expr, error) {
	if !p.peekAsOf() {
		return nil, nil
	}
	p.pos += 2
	return p.parseAdditive()
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	if p.acceptOp("*") {
		return SelectItem{Star: true}, nil
	}
	// tbl.* lookahead
	if p.peek().Type == TokIdent && p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].Type == TokOp && p.toks[p.pos+1].Text == "." &&
		p.toks[p.pos+2].Type == TokOp && p.toks[p.pos+2].Text == "*" {
		tbl := p.next().Text
		p.next() // .
		p.next() // *
		return SelectItem{Star: true, Table: tbl}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if p.peek().Type == TokIdent {
		item.Alias = p.next().Text
	}
	return item, nil
}

func (p *Parser) parseTableRef() (TableRef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Name: name}
	if p.peekAsOf() {
		return ref, nil // AS OF belongs to the SELECT, not an alias
	}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = alias
	} else if p.peek().Type == TokIdent {
		ref.Alias = p.next().Text
	}
	return ref, nil
}

func (p *Parser) parseInsert() (*Insert, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	if p.acceptOp("(") {
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if p.peek().Type == TokKeyword && p.peek().Text == "SELECT" {
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		ins.Query = q
		return ins, nil
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.acceptOp(",") {
			break
		}
	}
	return ins, nil
}

func (p *Parser) parseUpdate() (*Update, error) {
	if err := p.expectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	upd := &Update{Table: table}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Set = append(upd.Set, Assignment{Column: col, Expr: e})
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Where = w
	}
	return upd, nil
}

func (p *Parser) parseDelete() (*Delete, error) {
	if err := p.expectKeyword("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: table}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = w
	}
	return del, nil
}

// typeKeywords maps SQL type names to value kinds.
var typeKeywords = map[string]sqlval.Kind{
	"INTEGER": sqlval.KindInt, "INT": sqlval.KindInt,
	"FLOAT": sqlval.KindFloat, "REAL": sqlval.KindFloat, "DECIMAL": sqlval.KindFloat,
	"TEXT": sqlval.KindString, "VARCHAR": sqlval.KindString, "CHAR": sqlval.KindString,
	"BOOLEAN": sqlval.KindBool, "BOOL": sqlval.KindBool,
	"DATE": sqlval.KindDate,
}

// parseCreate dispatches CREATE TABLE vs. CREATE INDEX.
func (p *Parser) parseCreate() (Statement, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	if p.peek().Type == TokKeyword && p.peek().Text == "INDEX" {
		return p.parseCreateIndex()
	}
	return p.parseCreateTable()
}

// parseDrop dispatches DROP TABLE vs. DROP INDEX.
func (p *Parser) parseDrop() (Statement, error) {
	if err := p.expectKeyword("DROP"); err != nil {
		return nil, err
	}
	if p.peek().Type == TokKeyword && p.peek().Text == "INDEX" {
		return p.parseDropIndex()
	}
	return p.parseDropTable()
}

// parseCreateIndex parses CREATE INDEX [IF NOT EXISTS] name ON table (cols)
// [USING HASH|ORDERED]; CREATE has already been consumed.
func (p *Parser) parseCreateIndex() (*CreateIndex, error) {
	if err := p.expectKeyword("INDEX"); err != nil {
		return nil, err
	}
	ci := &CreateIndex{}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		ci.IfNotExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ci.Name = name
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ci.Table = table
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		ci.Columns = append(ci.Columns, col)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	if p.acceptKeyword("USING") {
		kind, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		switch kind {
		case "hash", "ordered":
			ci.Kind = kind
		default:
			return nil, p.errorf("unknown index kind %q (want HASH or ORDERED)", kind)
		}
	}
	return ci, nil
}

// parseDropIndex parses DROP INDEX [IF EXISTS] name; DROP has already been
// consumed.
func (p *Parser) parseDropIndex() (*DropIndex, error) {
	if err := p.expectKeyword("INDEX"); err != nil {
		return nil, err
	}
	di := &DropIndex{}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		di.IfExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	di.Name = name
	return di, nil
}

func (p *Parser) parseCreateTable() (*CreateTable, error) {
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	ct := &CreateTable{}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		ct.IfNotExists = true
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ct.Table = table
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		t := p.next()
		if t.Type != TokKeyword {
			return nil, p.errorf("expected column type, got %q", t.Text)
		}
		kind, ok := typeKeywords[t.Text]
		if !ok {
			return nil, p.errorf("unknown column type %q", t.Text)
		}
		// Optional length like VARCHAR(25) / DECIMAL(15,2): parsed and ignored.
		if p.acceptOp("(") {
			for !p.acceptOp(")") {
				if p.atEOF() {
					return nil, p.errorf("unterminated type length")
				}
				p.next()
			}
		}
		col := ColumnDef{Name: name, Type: kind}
		if p.acceptKeyword("PRIMARY") {
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			col.PrimaryKey = true
		}
		ct.Columns = append(ct.Columns, col)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return ct, nil
}

func (p *Parser) parseDropTable() (*DropTable, error) {
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	dt := &DropTable{}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		dt.IfExists = true
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	dt.Table = table
	return dt, nil
}

// parseExplain parses EXPLAIN [ANALYZE] <stmt>. Only statements with an
// execution tree may be explained: SELECT, INSERT, UPDATE, DELETE.
func (p *Parser) parseExplain() (*Explain, error) {
	if err := p.expectKeyword("EXPLAIN"); err != nil {
		return nil, err
	}
	ex := &Explain{Analyze: p.acceptKeyword("ANALYZE")}
	inner, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	switch inner.(type) {
	case *Select, *Insert, *Update, *Delete:
		ex.Stmt = inner
		return ex, nil
	default:
		return nil, p.errorf("EXPLAIN supports SELECT, INSERT, UPDATE and DELETE, not %T", inner)
	}
}

// parseVacuum parses VACUUM [RETAIN <expr>].
func (p *Parser) parseVacuum() (*Vacuum, error) {
	if err := p.expectKeyword("VACUUM"); err != nil {
		return nil, err
	}
	v := &Vacuum{}
	if p.acceptKeyword("RETAIN") {
		e, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		v.Retain = e
	}
	return v, nil
}

// parseReenact parses
// REENACT TRANSACTION <expr> [SUBSTITUTE n WITH 'sql' [, n WITH 'sql']...].
func (p *Parser) parseReenact() (*Reenact, error) {
	if err := p.expectKeyword("REENACT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TRANSACTION"); err != nil {
		return nil, err
	}
	txn, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	r := &Reenact{Txn: txn}
	if p.acceptKeyword("SUBSTITUTE") {
		for {
			t := p.next()
			if t.Type != TokNumber {
				return nil, p.errorf("expected statement ordinal after SUBSTITUTE, got %q", t.Text)
			}
			ord, err := strconv.Atoi(t.Text)
			if err != nil || ord < 1 {
				return nil, p.errorf("invalid statement ordinal %q", t.Text)
			}
			if err := p.expectKeyword("WITH"); err != nil {
				return nil, err
			}
			s := p.next()
			if s.Type != TokString {
				return nil, p.errorf("expected substituted SQL string, got %q", s.Text)
			}
			r.Subs = append(r.Subs, ReenactSub{Ordinal: ord, SQL: s.Text})
			if !p.acceptOp(",") {
				break
			}
		}
	}
	return r, nil
}

func (p *Parser) parseCopy() (*Copy, error) {
	if err := p.expectKeyword("COPY"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	c := &Copy{Table: table}
	switch {
	case p.acceptKeyword("FROM"):
	case p.acceptKeyword("TO"):
		c.To = true
	default:
		return nil, p.errorf("expected FROM or TO in COPY, got %q", p.peek().Text)
	}
	t := p.next()
	if t.Type != TokString {
		return nil, p.errorf("expected file path string in COPY, got %q", t.Text)
	}
	c.Path = t.Text
	return c, nil
}

// ---- Expression parsing (precedence climbing) ----

func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", Expr: e}, nil
	}
	return p.parseComparison()
}

var comparisonOps = map[string]string{"=": "=", "<>": "<>", "!=": "<>", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

func (p *Parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.acceptKeyword("IS") {
		negated := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{Expr: left, Negated: negated}, nil
	}
	negated := false
	if p.peek().Type == TokKeyword && p.peek().Text == "NOT" &&
		p.pos+1 < len(p.toks) && p.toks[p.pos+1].Type == TokKeyword &&
		(p.toks[p.pos+1].Text == "LIKE" || p.toks[p.pos+1].Text == "BETWEEN" || p.toks[p.pos+1].Text == "IN") {
		p.next()
		negated = true
	}
	switch {
	case p.acceptKeyword("LIKE"):
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		var e Expr = &BinaryExpr{Op: "LIKE", Left: left, Right: right}
		if negated {
			e = &UnaryExpr{Op: "NOT", Expr: e}
		}
		return e, nil
	case p.acceptKeyword("BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{Expr: left, Lo: lo, Hi: hi, Negated: negated}, nil
	case p.acceptKeyword("IN"):
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		if t := p.peek(); t.Type == TokKeyword && t.Text == "SELECT" {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &InExpr{Expr: left, Sub: sub, Negated: negated}, nil
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &InExpr{Expr: left, List: list, Negated: negated}, nil
	}
	if negated {
		return nil, p.errorf("expected LIKE, BETWEEN or IN after NOT")
	}
	t := p.peek()
	if t.Type == TokOp {
		if op, ok := comparisonOps[t.Text]; ok {
			p.next()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, Left: left, Right: right}, nil
		}
	}
	return left, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Type != TokOp || (t.Text != "+" && t.Text != "-" && t.Text != "||") {
			return left, nil
		}
		p.next()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: t.Text, Left: left, Right: right}
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Type != TokOp || (t.Text != "*" && t.Text != "/" && t.Text != "%") {
			return left, nil
		}
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: t.Text, Left: left, Right: right}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.acceptOp("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", Expr: e}, nil
	}
	if p.acceptOp("+") {
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Type {
	case TokNumber:
		p.next()
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errorf("invalid number %q", t.Text)
			}
			return &Literal{Value: sqlval.NewFloat(f)}, nil
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("invalid integer %q", t.Text)
		}
		return &Literal{Value: sqlval.NewInt(n)}, nil
	case TokString:
		p.next()
		return &Literal{Value: sqlval.NewString(t.Text)}, nil
	case TokParam:
		p.next()
		p.nparams++
		return &Param{Index: p.nparams}, nil
	case TokKeyword:
		switch t.Text {
		case "NULL":
			p.next()
			return &Literal{Value: sqlval.Null}, nil
		case "TRUE":
			p.next()
			return &Literal{Value: sqlval.NewBool(true)}, nil
		case "FALSE":
			p.next()
			return &Literal{Value: sqlval.NewBool(false)}, nil
		case "DATE":
			p.next()
			lit := p.next()
			if lit.Type != TokString {
				return nil, p.errorf("expected string after DATE, got %q", lit.Text)
			}
			v, err := sqlval.ParseDate(lit.Text)
			if err != nil {
				return nil, p.errorf("%v", err)
			}
			return &Literal{Value: v}, nil
		case "EXISTS":
			p.next()
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &ExistsExpr{Query: sub}, nil
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			p.next()
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			fe := &FuncExpr{Name: t.Text}
			if p.acceptOp("*") {
				if t.Text != "COUNT" {
					return nil, p.errorf("%s(*) is not valid", t.Text)
				}
				fe.Star = true
			} else {
				fe.Distinct = p.acceptKeyword("DISTINCT")
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				fe.Arg = arg
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return fe, nil
		default:
			return nil, p.errorf("unexpected keyword %q in expression", t.Text)
		}
	case TokOp:
		if t.Text == "(" {
			p.next()
			if nt := p.peek(); nt.Type == TokKeyword && nt.Text == "SELECT" {
				sub, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &SubqueryExpr{Query: sub}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errorf("unexpected token %q in expression", t.Text)
	case TokIdent:
		p.next()
		if p.acceptOp(".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: t.Text, Column: col}, nil
		}
		return &ColumnRef{Column: t.Text}, nil
	default:
		return nil, p.errorf("unexpected end of expression")
	}
}
