package ldv

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"

	"ldv/internal/obs"
	"ldv/internal/pack"
	"ldv/internal/prov"
)

// Compression accounting: the ratio out/in over these two counters is the
// package-metadata compression ratio reported by the obs snapshot.
var (
	mCompressIn  = obs.NewCounter("pack.compress.in_bytes", "Bytes fed to package metadata compression")
	mCompressOut = obs.NewCounter("pack.compress.out_bytes", "Bytes produced by package metadata compression")
)

// Trace and DB-log metadata is repetitive (node keys, SQL text, encoded
// rows) and is stored gzip-compressed inside packages — the
// moral equivalent of the paper prototype's compact SQLite provenance
// store. Payload files (binaries, data, CSVs) stay uncompressed, as in
// PTU/CDE packages.

func gzipBytes(data []byte) ([]byte, error) { return gzipLevel(data, gzip.DefaultCompression) }

// traceGzipLevel is the level the execution trace is stored at. Its binary
// encoding is already compact (varints, one string table), so the default
// level's longer match search buys little: on the ldv_wide trace (752 KB
// encoded) BestSpeed takes 9 ms for 288 KB where the default takes 57 ms for
// 269 KB (DESIGN.md "Trace format"). The DB log is JSON text and keeps the
// default.
const traceGzipLevel = gzip.BestSpeed

func gzipLevel(data []byte, level int) ([]byte, error) {
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, level)
	if err != nil {
		return nil, err
	}
	if _, err := zw.Write(data); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	mCompressIn.Add(int64(len(data)))
	mCompressOut.Add(int64(buf.Len()))
	return buf.Bytes(), nil
}

func gunzipBytes(data []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	return io.ReadAll(zr)
}

// oldJSONTracePath is where packages built before the binary trace format
// kept their trace. It is only recognized, to say why such a package has no
// readable trace; nothing reads it.
const oldJSONTracePath = "/ldv/trace.json.gz"

// ReadTrace loads and decompresses the combined execution trace from a
// server-included package.
func ReadTrace(arch *pack.Archive) (*prov.Trace, error) {
	raw, err := arch.Read(TracePath)
	if err != nil {
		if arch.Has(oldJSONTracePath) {
			return nil, fmt.Errorf("package carries only %s: the JSON trace member of packages built before the binary trace format is not supported", oldJSONTracePath)
		}
		return nil, fmt.Errorf("package has no trace: %w", err)
	}
	data, err := gunzipBytes(raw)
	if err != nil {
		return nil, fmt.Errorf("trace decompress: %w", err)
	}
	return prov.Unmarshal(data, prov.CombinedDefault())
}

// ReadDBLog loads and decompresses the recorded interaction log from a
// server-excluded package.
func ReadDBLog(arch *pack.Archive) ([]*SessionLog, error) {
	raw, err := arch.Read(DBLogPath)
	if err != nil {
		return nil, fmt.Errorf("package has no DB log: %w", err)
	}
	data, err := gunzipBytes(raw)
	if err != nil {
		return nil, fmt.Errorf("db log decompress: %w", err)
	}
	return UnmarshalDBLog(data)
}
