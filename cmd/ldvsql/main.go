// Command ldvsql is an interactive SQL shell for a standalone ldvdb server.
//
// Usage:
//
//	ldvsql -addr 127.0.0.1:5544
//	echo "SELECT 1 + 1;" | ldvsql -addr 127.0.0.1:5544
//
// Statements end with ';'. The \lineage toggle requests provenance for
// subsequent queries and prints each row's lineage (tuple versions it
// depends on). \asof <tick> pins subsequent queries to the historical
// snapshot at that logical tick (time travel; \asof off returns to head) —
// the session-level equivalent of appending AS OF <tick> to each SELECT.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ldv/internal/client"
	"ldv/internal/engine"
)

func main() {
	var (
		addr = flag.String("addr", "127.0.0.1:5544", "server address")
		proc = flag.String("proc", "ldvsql", "process identity (prov_p)")
	)
	flag.Parse()
	if err := run(*addr, *proc); err != nil {
		fmt.Fprintln(os.Stderr, "ldvsql:", err)
		os.Exit(1)
	}
}

// lineageToggle forces WithLineage on every statement when enabled, and
// pins statements to a historical snapshot while \asof is active.
type lineageToggle struct {
	client.BaseInterceptor
	on   bool
	asOf uint64
}

func (t *lineageToggle) BeforeQuery(info *client.QueryInfo) (*engine.Result, error) {
	if t.on {
		info.WithLineage = true
	}
	if t.asOf > 0 {
		info.AsOf = t.asOf
	}
	return nil, nil
}

func run(addr, proc string) error {
	toggle := &lineageToggle{}
	conn, err := client.Dial(client.NetDialer{}, addr, client.Options{
		Proc: proc, Database: "main", Interceptors: []client.Interceptor{toggle},
	})
	if err != nil {
		return fmt.Errorf("connect %s: %w", addr, err)
	}
	defer conn.Close()
	fmt.Fprintf(os.Stderr, "connected to %s; end statements with ';', \\lineage toggles provenance, \\asof <tick> time-travels, \\q quits\n", addr)

	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		switch trimmed {
		case "\\q", "\\quit", "exit":
			return nil
		case "\\lineage":
			toggle.on = !toggle.on
			fmt.Fprintf(os.Stderr, "lineage %v\n", toggle.on)
			continue
		}
		if rest, ok := strings.CutPrefix(trimmed, "\\asof"); ok {
			arg := strings.TrimSpace(rest)
			if arg == "off" || arg == "" {
				toggle.asOf = 0
				fmt.Fprintln(os.Stderr, "asof off (reading head)")
			} else if tick, err := strconv.ParseUint(arg, 10, 64); err == nil {
				toggle.asOf = tick
				fmt.Fprintf(os.Stderr, "asof %d (queries read the snapshot at that tick)\n", tick)
			} else {
				fmt.Fprintf(os.Stderr, "usage: \\asof <tick> | \\asof off\n")
			}
			continue
		}
		pending.WriteString(line)
		pending.WriteString("\n")
		if !strings.Contains(line, ";") {
			continue
		}
		stmt := strings.TrimSpace(pending.String())
		pending.Reset()
		stmt = strings.TrimSuffix(stmt, ";")
		if stmt == "" {
			continue
		}
		res, err := conn.Query(stmt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			continue
		}
		printResult(res)
	}
	return scanner.Err()
}

func printResult(res *engine.Result) {
	if len(res.Columns) > 0 {
		fmt.Println(strings.Join(res.Columns, " | "))
	}
	for i, row := range res.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		fmt.Println(strings.Join(cells, " | "))
		if lin := res.LineageRefs(i); len(lin) > 0 {
			refs := make([]string, len(lin))
			for j, r := range lin {
				refs[j] = r.String()
			}
			fmt.Printf("  lineage: %s\n", strings.Join(refs, ", "))
		}
	}
	if len(res.Columns) == 0 {
		fmt.Printf("OK, %d rows affected\n", res.RowsAffected)
	} else {
		fmt.Printf("(%d rows)\n", len(res.Rows))
	}
}
