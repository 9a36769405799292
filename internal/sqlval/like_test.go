package sqlval

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestLike(t *testing.T) {
	cases := []struct {
		s, p  string
		match bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h__lo", true},
		{"hello", "h_lo", false},
		{"hello", "", false},
		{"", "", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "%%", true},
		{"abc", "a%c", true},
		{"abc", "a%b", false},
		{"Customer#000000001", "%00000001%", true},
		{"Customer#000000001", "%0000000%", true},
		{"Customer#000019", "%0000000%", false},
		{"aaa", "%a%a%", true},
		{"ab", "_%_", true},
		{"a", "_%_", false},
		// '_' is one character, not one byte.
		{"é", "_", true},
		{"é", "__", false},
		{"aéb", "a_b", true},
		{"aéb", "a__b", false},
		{"日本語", "___", true},
		{"日本語", "%_", true},
		{"日本語", "_本%", true},
		{"日本語", "%本_", true},
		{"日本語", "%本__", false},
		{"xé", "%_é", true},
		// A '%' in the subject is an ordinary character.
		{"%a", "%", true},
		{"%a", "%a", true},
		{"a%", "a%", true},
	}
	for _, c := range cases {
		got, ok := Like(NewString(c.s), NewString(c.p))
		if !ok {
			t.Errorf("Like(%q, %q) unexpectedly unknown", c.s, c.p)
			continue
		}
		if got != c.match {
			t.Errorf("Like(%q, %q) = %v, want %v", c.s, c.p, got, c.match)
		}
	}
}

// TestCompiledLikeMatchesMatcher checks every compiled fast path against the
// backtracking matcher, which it replaces only for patterns without '_' and
// without an inner '%'.
func TestCompiledLikeMatchesMatcher(t *testing.T) {
	subjects := []string{"", "a", "ab", "abc", "regular", "irregular deposits", "%", "%a%", "é", "xéx", "aaa"}
	patterns := []string{"", "%", "%%", "%%%", "a", "a%", "%a", "%a%", "%%a%%", "ab", "abc%", "%bc", "%regular%",
		"%é%", "é", "%a%a", "a%c", "_", "%_%", "%x%x%"}
	for _, p := range patterns {
		c := CompileLike(p)
		for _, s := range subjects {
			if got, want := c.Match(s), likeMatch(s, p); got != want {
				t.Errorf("CompileLike(%q).Match(%q) = %v, matcher says %v", p, s, got, want)
			}
		}
	}
	for p, shape := range map[string]likeShape{
		"abc": likeEqual, "abc%": likePrefix, "%abc": likeSuffix, "%abc%": likeContains,
		"%": likeSuffix, "a_c": likeMatcher, "%a%c%": likeMatcher, "%%abc": likeMatcher,
	} {
		if got := CompileLike(p).shape; got != shape {
			t.Errorf("CompileLike(%q) shape %d, want %d", p, got, shape)
		}
	}
}

func TestLikeUnknown(t *testing.T) {
	if _, ok := Like(Null, NewString("%")); ok {
		t.Error("NULL LIKE must be unknown")
	}
	if _, ok := Like(NewInt(1), NewString("%")); ok {
		t.Error("non-text LIKE must be unknown")
	}
	if _, ok := Like(NewString("a"), Null); ok {
		t.Error("LIKE NULL must be unknown")
	}
}

// Property: a pattern equal to the string itself (no metacharacters) matches
// exactly the same string.
func TestQuickLikeExact(t *testing.T) {
	f := func(raw string) bool {
		s := strings.NewReplacer("%", "p", "_", "u").Replace(raw)
		m, ok := Like(NewString(s), NewString(s))
		return ok && m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: pattern "%"+s+"%" matches any string containing s.
func TestQuickLikeContains(t *testing.T) {
	f := func(prefix, mid, suffix string) bool {
		clean := func(x string) string { return strings.NewReplacer("%", "p", "_", "u").Replace(x) }
		p, m, s := clean(prefix), clean(mid), clean(suffix)
		got, ok := Like(NewString(p+m+s), NewString("%"+m+"%"))
		return ok && got
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// likeSubjects are order comments of TPC-H's shape, one in eight holding
// the word a '%regular%' pattern looks for.
var likeSubjects = func() []string {
	out := make([]string, 64)
	for i := range out {
		out[i] = "furiously final deposits sleep quickly among the blithely ironic packages " + strings.Repeat("x", i%7)
		if i%8 == 0 {
			out[i] += " regular"
		}
	}
	return out
}()

func benchLike(b *testing.B, match func(string) bool) {
	n := 0
	for i := 0; i < b.N; i++ {
		if match(likeSubjects[i%len(likeSubjects)]) {
			n++
		}
	}
	if n == 0 && b.N >= len(likeSubjects) {
		b.Fatal("no subject matched")
	}
}

// BenchmarkLikeContains is a '%lit%' pattern compiled to strings.Contains;
// BenchmarkLikeMatcher runs the same pattern through the matcher.
func BenchmarkLikeContains(b *testing.B) {
	benchLike(b, CompileLike("%regular%").Match)
}

func BenchmarkLikeMatcher(b *testing.B) {
	benchLike(b, func(s string) bool { return likeMatch(s, "%regular%") })
}
