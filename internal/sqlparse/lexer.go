// Package sqlparse implements the SQL front end of the LDV engine: a lexer,
// an AST, and a recursive-descent parser for the dialect used by the paper's
// workloads — SELECT (joins, aggregation, GROUP BY, ORDER BY, LIMIT, LIKE,
// BETWEEN, IN), INSERT, UPDATE, DELETE, CREATE/DROP TABLE, and the
// Perm-style SELECT PROVENANCE extension.
package sqlparse

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenType classifies lexical tokens.
type TokenType int

// Token types.
const (
	TokEOF TokenType = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString
	TokOp    // operators and punctuation: + - * / % = <> != < <= > >= ( ) , . ; ||
	TokParam // positional `?` placeholder (prepared statements)
)

// Token is a single lexical token with its source position.
type Token struct {
	Type TokenType
	Text string // keywords are upper-cased, identifiers lower-cased
	Pos  int    // byte offset in the input
}

// keywords recognized by the lexer. Everything else is an identifier.
var keywords = map[string]bool{
	"SELECT": true, "PROVENANCE": true, "FROM": true, "WHERE": true,
	"GROUP": true, "BY": true, "HAVING": true, "ORDER": true, "LIMIT": true, "AS": true,
	"AND": true, "OR": true, "NOT": true, "LIKE": true, "BETWEEN": true,
	"IN": true, "IS": true, "NULL": true, "TRUE": true, "FALSE": true,
	"INSERT": true, "INTO": true, "VALUES": true, "UPDATE": true,
	"SET": true, "DELETE": true, "CREATE": true, "TABLE": true,
	"DROP": true, "PRIMARY": true, "KEY": true, "ASC": true, "DESC": true,
	"DATE": true, "INTEGER": true, "INT": true, "FLOAT": true, "REAL": true,
	"TEXT": true, "VARCHAR": true, "CHAR": true, "BOOLEAN": true, "BOOL": true,
	"DISTINCT": true, "JOIN": true, "ON": true, "INNER": true,
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"DECIMAL": true, "IF": true, "EXISTS": true,
	"INDEX": true, "USING": true,
	"BEGIN": true, "COMMIT": true, "ROLLBACK": true, "TRANSACTION": true,
	"COPY": true, "TO": true,
	"EXPLAIN": true, "ANALYZE": true,
	"OF": true, "VACUUM": true, "RETAIN": true,
	"REENACT": true, "SUBSTITUTE": true, "WITH": true,
}

// Lexer tokenizes a SQL string.
type Lexer struct {
	src string
	pos int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer { return &Lexer{src: src} }

// Next returns the next token, or an error for malformed input.
func (l *Lexer) Next() (Token, error) {
	l.skipSpace()
	start := l.pos
	if l.pos >= len(l.src) {
		return Token{Type: TokEOF, Pos: start}, nil
	}
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		return l.lexIdent(start), nil
	case isDigit(c):
		return l.lexNumber(start)
	case c == '\'':
		return l.lexString(start)
	default:
		return l.lexOp(start)
	}
}

func (l *Lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			// line comment
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		if !unicode.IsSpace(rune(c)) {
			return
		}
		l.pos++
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || isDigit(c)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func (l *Lexer) lexIdent(start int) Token {
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	word := l.src[start:l.pos]
	upper := strings.ToUpper(word)
	if keywords[upper] {
		return Token{Type: TokKeyword, Text: upper, Pos: start}
	}
	return Token{Type: TokIdent, Text: strings.ToLower(word), Pos: start}
}

func (l *Lexer) lexNumber(start int) (Token, error) {
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '.' {
			if seenDot {
				break
			}
			seenDot = true
			l.pos++
			continue
		}
		if !isDigit(c) {
			break
		}
		l.pos++
	}
	text := l.src[start:l.pos]
	if strings.HasSuffix(text, ".") {
		return Token{}, fmt.Errorf("malformed number %q at offset %d", text, start)
	}
	// Optional exponent, [eE][+-]?digits — the form FLOAT literals of
	// magnitude ≥ 1e6 or < 1e-4 render in (sqlval.Value.String uses 'g').
	// An e that no digit follows is left for the next token: `1e` is still
	// the number 1 and the name e.
	if p := l.pos; p < len(l.src) && (l.src[p] == 'e' || l.src[p] == 'E') {
		p++
		if p < len(l.src) && (l.src[p] == '+' || l.src[p] == '-') {
			p++
		}
		if p < len(l.src) && isDigit(l.src[p]) {
			for p < len(l.src) && isDigit(l.src[p]) {
				p++
			}
			l.pos = p
		}
	}
	return Token{Type: TokNumber, Text: l.src[start:l.pos], Pos: start}, nil
}

func (l *Lexer) lexString(start int) (Token, error) {
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				sb.WriteByte('\'') // escaped quote
				l.pos += 2
				continue
			}
			l.pos++
			return Token{Type: TokString, Text: sb.String(), Pos: start}, nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return Token{}, fmt.Errorf("unterminated string literal at offset %d", start)
}

var twoCharOps = map[string]bool{"<=": true, ">=": true, "<>": true, "!=": true, "||": true}

func (l *Lexer) lexOp(start int) (Token, error) {
	if l.pos+1 < len(l.src) {
		two := l.src[l.pos : l.pos+2]
		if twoCharOps[two] {
			l.pos += 2
			return Token{Type: TokOp, Text: two, Pos: start}, nil
		}
	}
	c := l.src[l.pos]
	switch c {
	case '+', '-', '*', '/', '%', '=', '<', '>', '(', ')', ',', '.', ';':
		l.pos++
		return Token{Type: TokOp, Text: string(c), Pos: start}, nil
	case '?':
		l.pos++
		return Token{Type: TokParam, Text: "?", Pos: start}, nil
	default:
		return Token{}, fmt.Errorf("unexpected character %q at offset %d", c, start)
	}
}

// Tokenize lexes the whole input, excluding the trailing EOF token.
func Tokenize(src string) ([]Token, error) {
	lx := NewLexer(src)
	var toks []Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		if t.Type == TokEOF {
			return toks, nil
		}
		toks = append(toks, t)
	}
}
