package sqlparse

import "testing"

// FuzzParse asserts the parser never panics and that everything it accepts
// renders to SQL it accepts again (round-trip stability).
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT 1",
		"SELECT a, b FROM t WHERE a > 5 GROUP BY a HAVING count(*) > 1 ORDER BY b DESC LIMIT 3",
		"SELECT PROVENANCE * FROM t u JOIN v ON u.x = v.y",
		"INSERT INTO t (a) VALUES (1), (NULL), (DATE '2020-01-01')",
		"UPDATE t SET a = (SELECT MAX(b) FROM u) WHERE c IN (SELECT d FROM e)",
		"DELETE FROM t WHERE a NOT BETWEEN 1 AND 2",
		"CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR(10))",
		"COPY t FROM '/x.csv'",
		"BEGIN; COMMIT; ROLLBACK;",
		"SELECT 'o''brien' || x FROM t -- comment",
		"SELECT ((((1))))",
		"\x00\xff SELECT",
		// FLOAT literals render with an exponent from 1e6 up and below 1e-4.
		"SELECT 1000000.0",
		"SELECT 1e+06",
		"SELECT 0.00001",
		"SELECT 1e-05",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			return
		}
		rendered := stmt.String()
		stmt2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("accepted %q but rejected own rendering %q: %v", src, rendered, err)
		}
		if stmt2.String() != rendered {
			t.Fatalf("rendering not a fixed point: %q -> %q", rendered, stmt2.String())
		}
	})
}

// FuzzAsOf exercises the time-travel grammar: the AS OF clause in both its
// accepted positions (after FROM, trailing), VACUUM, and REENACT. Same
// contract as FuzzParse — no panics, and accepted input round-trips through
// its normalized rendering.
func FuzzAsOf(f *testing.F) {
	seeds := []string{
		"SELECT * FROM t AS OF 5",
		"SELECT a FROM t AS OF ?",
		"SELECT * FROM t WHERE a > 1 ORDER BY a LIMIT 3 AS OF 100",
		"SELECT * FROM t x AS OF 1 + 2",
		"SELECT * FROM t AS x AS OF 7",
		"SELECT * FROM t JOIN u ON t.a = u.b AS OF 9 WHERE t.a > 0",
		"SELECT * FROM t AS OF 1 AS OF 2",
		"EXPLAIN SELECT * FROM t AS OF 4",
		"VACUUM",
		"VACUUM RETAIN 100",
		"REENACT TRANSACTION 3",
		"REENACT TRANSACTION ? SUBSTITUTE 1 WITH 'UPDATE t SET a = 1', 2 WITH 'SELECT ''x'''",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			return
		}
		rendered := stmt.String()
		stmt2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("accepted %q but rejected own rendering %q: %v", src, rendered, err)
		}
		if stmt2.String() != rendered {
			t.Fatalf("rendering not a fixed point: %q -> %q", rendered, stmt2.String())
		}
	})
}
