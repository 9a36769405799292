package sqlval

import (
	"strings"
	"unicode/utf8"
)

// Like evaluates the SQL LIKE predicate: '%' matches any sequence of
// characters (including empty), '_' matches exactly one character. The
// result follows three-valued logic: ok is false when either operand is
// NULL or non-text.
func Like(v, pattern Value) (match, ok bool) {
	if v.Kind() != KindString || pattern.Kind() != KindString {
		return false, false
	}
	return CompileLike(pattern.s).Match(v.s), true
}

// LikePattern is a LIKE pattern compiled once for many subjects. A pattern
// whose only wildcards are a leading and/or trailing '%' — '%lit%', 'lit%',
// '%lit' or 'lit' — tests the literal with strings.Contains, HasPrefix,
// HasSuffix or ==; any other pattern runs the backtracking matcher.
type LikePattern struct {
	shape likeShape
	lit   string // the literal for every shape but likeMatcher, else the pattern
}

type likeShape uint8

const (
	likeMatcher likeShape = iota
	likeEqual
	likePrefix
	likeSuffix
	likeContains
)

// CompileLike classifies pattern.
func CompileLike(pattern string) LikePattern {
	if strings.IndexByte(pattern, '_') >= 0 {
		return LikePattern{shape: likeMatcher, lit: pattern}
	}
	lit, lead := strings.CutPrefix(pattern, "%")
	lit, trail := strings.CutSuffix(lit, "%")
	if strings.IndexByte(lit, '%') >= 0 {
		return LikePattern{shape: likeMatcher, lit: pattern}
	}
	switch {
	case lead && trail:
		return LikePattern{shape: likeContains, lit: lit}
	case lead:
		return LikePattern{shape: likeSuffix, lit: lit}
	case trail:
		return LikePattern{shape: likePrefix, lit: lit}
	}
	return LikePattern{shape: likeEqual, lit: lit}
}

// Match reports whether s matches the pattern.
func (p LikePattern) Match(s string) bool {
	switch p.shape {
	case likeEqual:
		return s == p.lit
	case likePrefix:
		return strings.HasPrefix(s, p.lit)
	case likeSuffix:
		return strings.HasSuffix(s, p.lit)
	case likeContains:
		return strings.Contains(s, p.lit)
	}
	return likeMatch(s, p.lit)
}

// likeMatch implements LIKE with an iterative backtracking matcher, the same
// strategy used for glob matching: remember the position of the last '%' and
// retry from there on mismatch. '_' consumes one UTF-8 encoded character (a
// byte that starts no valid encoding counts as one), and a retry moves on by
// one character, so a match never starts inside a character. Runs in
// O(len(s)*len(p)) worst case without recursion.
func likeMatch(s, p string) bool {
	var si, pi int
	star, starSi := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && p[pi] == '_':
			_, n := utf8.DecodeRuneInString(s[si:])
			si += n
			pi++
		case pi < len(p) && p[pi] == s[si] && p[pi] != '%':
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star, starSi = pi, si
			pi++
		case star >= 0:
			_, n := utf8.DecodeRuneInString(s[starSi:])
			starSi += n
			si = starSi
			pi = star + 1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}
