package engine

import (
	"strings"
	"testing"

	"ldv/internal/sqlval"
)

// The primary-key rule (Table.claimKey) on each path that gives a version a
// key. A key may not be NULL: _pkey does not index NULL, so a NULL key would
// escape the rule and every `id = …` probe. Each path refuses it and stores
// nothing.

func refusesNull(t *testing.T, what string, err error) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "null value in primary key column id") {
		t.Fatalf("%s with a NULL primary key: err = %v", what, err)
	}
}

func TestNullPrimaryKeyRefusedByInsert(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE p (id INT PRIMARY KEY, v INT)")
	for i := 0; i < 2; i++ {
		_, err := db.Exec("INSERT INTO p VALUES (NULL, 1)", ExecOptions{})
		refusesNull(t, "INSERT", err)
	}
	_, err := db.Exec("INSERT INTO p (v) VALUES (1)", ExecOptions{})
	refusesNull(t, "INSERT without the key column", err)
	if got := rowsToStrings(mustExec(t, db, "SELECT COUNT(*) FROM p", ExecOptions{})); got[0] != "0" {
		t.Fatalf("the refused inserts left %v rows", got)
	}
}

func TestNullPrimaryKeyRefusedByUpdate(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE p (id INT PRIMARY KEY, v INT)")
	mustExec(t, db, "INSERT INTO p VALUES (1, 1)", ExecOptions{})
	_, err := db.Exec("UPDATE p SET id = NULL WHERE id = 1", ExecOptions{})
	refusesNull(t, "UPDATE", err)
	if got := rowsToStrings(mustExec(t, db, "SELECT id, v FROM p WHERE id = 1", ExecOptions{})); len(got) != 1 || got[0] != "1|1" {
		t.Fatalf("after the refused update, id = 1 reads %v", got)
	}
}

func TestNullPrimaryKeyRefusedByCopyFrom(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE p (id INT PRIMARY KEY, v INT)")
	fs := newMapFS()
	fs.WriteFile("/in.csv", []byte("1,1\n\\N,2\n"))
	_, err := db.Exec("COPY p FROM '/in.csv'", ExecOptions{FS: fs})
	refusesNull(t, "COPY FROM", err)
	if got := rowsToStrings(mustExec(t, db, "SELECT COUNT(*) FROM p", ExecOptions{})); got[0] != "0" {
		t.Fatalf("the refused COPY left %v rows", got)
	}
}

// nullKeyFile is a table file whose one live row has a NULL primary key.
func nullKeyFile() []byte {
	return newFileBuilder(intPK, fltCol).count(1).liveRow(1, sqlval.Null, sqlval.NewFloat(1)).count(0).count(0).count(0).seal()
}

func TestNullPrimaryKeyRefusedByTableFileLoad(t *testing.T) {
	fs := newMapFS()
	fs.WriteFile("/d/t.tbl", nullKeyFile())
	db := NewDB(nil)
	refusesNull(t, "LoadDir", db.LoadDir(fs, "/d"))
	if names := db.TableNames(); len(names) != 0 {
		t.Fatalf("the refused file installed %v", names)
	}
}

func TestNullPrimaryKeyRefusedBySnapshotLoad(t *testing.T) {
	db := NewDB(nil)
	_, err := db.LoadTableImage(nullKeyFile())
	refusesNull(t, "LoadTableImage", err)
	if names := db.TableNames(); len(names) != 0 {
		t.Fatalf("the refused image installed %v", names)
	}
}

// RestoreRows checks the keys of its batch once the batch is in, so a
// refused batch is taken out whole: the table is left as it was.
func TestRestoreRowsRefusesABatchWhole(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE p (id INT PRIMARY KEY, v INT)")
	mustExec(t, db, "INSERT INTO p VALUES (1, 1)", ExecOptions{})
	for _, tc := range []struct {
		bad  sqlval.Value
		want string
	}{{sqlval.NewInt(1), "duplicate primary key 1"}, {sqlval.Null, "null value in primary key column id"}} {
		batch := [][]sqlval.Value{{sqlval.NewInt(2), sqlval.NewInt(2)}, {tc.bad, sqlval.NewInt(3)}, {sqlval.NewInt(4), sqlval.NewInt(4)}}
		err := db.RestoreRows("p", len(batch), func(r *RestoredRow) (bool, error) {
			if len(batch) == 0 {
				return false, nil
			}
			*r = RestoredRow{ID: db.newRowID(), Version: db.clock.Tick(), Vals: batch[0]}
			batch = batch[1:]
			return true, nil
		})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("RestoreRows with %s: err = %v, want %q", tc.bad, err, tc.want)
		}
		if got := rowsToStrings(mustExec(t, db, "SELECT id, v FROM p", ExecOptions{})); len(got) != 1 || got[0] != "1|1" {
			t.Fatalf("after the refused batch with %s the table reads %v", tc.bad, got)
		}
		checkDerived(t, "after a refused batch", db)
	}
}
