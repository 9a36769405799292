package client

import (
	"testing"

	"ldv/internal/engine"
	"ldv/internal/server"
)

// The three forms of one point read over net.Pipe against an in-process
// server, dialed as the repository benchmark's wire_oltp dials: NoTrace, no
// interceptors. allocs/op is the number to watch — the request routine must
// cost such a connection nothing per statement (EXPERIMENTS.md "One client
// path").

func benchConn(b *testing.B) *Conn {
	b.Helper()
	db := engine.NewDB(nil)
	if _, err := db.ExecScript(`
		CREATE TABLE sales (id INT PRIMARY KEY, price FLOAT);
		INSERT INTO sales VALUES (1, 5), (2, 11), (3, 14);`, engine.ExecOptions{}); err != nil {
		b.Fatal(err)
	}
	conn, err := Dial(pipeDialer{server.New(db, nil)}, "db", Options{Proc: "bench", NoTrace: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { conn.Close() })
	return conn
}

func BenchmarkQueryText(b *testing.B) {
	conn := benchConn(b)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := conn.Query("SELECT price FROM sales WHERE id = 2"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStmtExec(b *testing.B) {
	conn := benchConn(b)
	st, err := conn.Prepare("SELECT price FROM sales WHERE id = ?")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := st.Exec(2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipeline16(b *testing.B) {
	conn := benchConn(b)
	st, err := conn.Prepare("SELECT price FROM sales WHERE id = ?")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		p := conn.Pipeline()
		for i := 0; i < 16; i++ {
			if err := p.Queue(st, 1+i%3); err != nil {
				b.Fatal(err)
			}
		}
		if res, err := p.Flush(); err != nil || len(res) != 16 {
			b.Fatal(len(res), err)
		}
	}
}
