// Package log is the LDV structured event logger: leveled, key=value
// formatted, trace-aware, and allocation-light (pooled buffers, no fmt on
// the common path). It replaces the server's ad-hoc stdlib logger so every
// operational event — session lifecycle, statement errors, slow queries —
// carries machine-parseable context (session id, trace id) instead of
// free-form text. A nil *Logger is valid and silently discards everything,
// so logging stays optional without nil checks at call sites.
package log

import (
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ldv/internal/obs"
)

// Level orders event severities.
type Level int32

// Severity levels, least to most severe.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the lowercase level name as rendered in log lines.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return "level(" + strconv.Itoa(int(l)) + ")"
	}
}

// ParseLevel maps a level name ("debug", "info", "warn", "error") to its
// Level; unknown names default to LevelInfo.
func ParseLevel(s string) Level {
	switch s {
	case "debug":
		return LevelDebug
	case "warn", "warning":
		return LevelWarn
	case "error":
		return LevelError
	default:
		return LevelInfo
	}
}

// Line counters per level, so the ops endpoint exposes logging volume.
// The family is described once by prefix.
var mLines = [4]*obs.Counter{
	obs.GetCounter("log.lines.debug"),
	obs.GetCounter("log.lines.info"),
	obs.GetCounter("log.lines.warn"),
	obs.GetCounter("log.lines.error"),
}

func init() {
	obs.DescribePrefix("log.lines.", "Log lines emitted by level")
}

// Logger writes key=value event lines. Derived loggers from With share the
// parent's writer, mutex, and level; only the bound-field prefix differs,
// so With is cheap enough to call per session.
type Logger struct {
	mu    *sync.Mutex
	out   io.Writer
	level *atomic.Int32
	bound []byte // preformatted " k=v" pairs appended to every line
}

// New returns a logger writing lines at or above level to w.
func New(w io.Writer, level Level) *Logger {
	l := &Logger{mu: &sync.Mutex{}, out: w, level: &atomic.Int32{}}
	l.level.Store(int32(level))
	return l
}

// SetLevel changes the minimum level (affects derived loggers too).
func (l *Logger) SetLevel(level Level) {
	if l != nil {
		l.level.Store(int32(level))
	}
}

// Enabled reports whether lines at level would be written.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level >= Level(l.level.Load())
}

// With returns a logger that appends the given key/value pairs to every
// line it writes. The fields are formatted once, here.
func (l *Logger) With(kv ...any) *Logger {
	if l == nil {
		return nil
	}
	d := &Logger{mu: l.mu, out: l.out, level: l.level}
	d.bound = appendPairs(append([]byte(nil), l.bound...), kv)
	return d
}

// Debug writes a debug-level event.
func (l *Logger) Debug(msg string, kv ...any) { l.log(LevelDebug, msg, kv) }

// Info writes an info-level event.
func (l *Logger) Info(msg string, kv ...any) { l.log(LevelInfo, msg, kv) }

// Warn writes a warn-level event.
func (l *Logger) Warn(msg string, kv ...any) { l.log(LevelWarn, msg, kv) }

// Error writes an error-level event.
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv) }

// bufPool recycles line buffers so steady-state logging allocates only what
// value formatting itself requires.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

func (l *Logger) log(level Level, msg string, kv []any) {
	if !l.Enabled(level) {
		return
	}
	if level >= LevelDebug && level <= LevelError {
		mLines[level].Inc()
	}
	bp := bufPool.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, "t="...)
	b = time.Now().UTC().AppendFormat(b, "2006-01-02T15:04:05.000Z")
	b = append(b, " lvl="...)
	b = append(b, level.String()...)
	b = append(b, " msg="...)
	b = appendValue(b, msg)
	b = append(b, l.bound...)
	b = appendPairs(b, kv)
	b = append(b, '\n')
	l.mu.Lock()
	_, _ = l.out.Write(b)
	l.mu.Unlock()
	*bp = b
	bufPool.Put(bp)
}

// appendPairs renders " k=v" for each pair; a trailing odd value is
// reported under the !BADKEY key rather than dropped.
func appendPairs(b []byte, kv []any) []byte {
	for i := 0; i+1 < len(kv); i += 2 {
		b = append(b, ' ')
		if k, ok := kv[i].(string); ok {
			b = append(b, k...)
		} else {
			b = appendValue(b, kv[i])
		}
		b = append(b, '=')
		b = appendValue(b, kv[i+1])
	}
	if len(kv)%2 == 1 {
		b = append(b, " !BADKEY="...)
		b = appendValue(b, kv[len(kv)-1])
	}
	return b
}

// appendValue formats one value without fmt for the common types.
func appendValue(b []byte, v any) []byte {
	switch v := v.(type) {
	case string:
		return appendQuoted(b, v)
	case int:
		return strconv.AppendInt(b, int64(v), 10)
	case int64:
		return strconv.AppendInt(b, v, 10)
	case uint64:
		return strconv.AppendUint(b, v, 10)
	case bool:
		return strconv.AppendBool(b, v)
	case time.Duration:
		return append(b, v.String()...)
	case obs.TraceID:
		return append(b, v.String()...)
	case error:
		if v == nil {
			return append(b, "<nil>"...)
		}
		return appendQuoted(b, v.Error())
	case nil:
		return append(b, "<nil>"...)
	default:
		if s, ok := v.(interface{ String() string }); ok {
			return appendQuoted(b, s.String())
		}
		return appendQuoted(b, typeless(v))
	}
}

// typeless is the slow-path fallback for values outside the fast switch.
func typeless(v any) string {
	type stringer interface{ GoString() string }
	if s, ok := v.(stringer); ok {
		return s.GoString()
	}
	return "?" // unformattable without fmt; callers pass supported types
}

// appendQuoted quotes only when the value contains whitespace, '=', or
// quote characters, keeping the common token case grep-friendly.
func appendQuoted(b []byte, s string) []byte {
	if needsQuoting(s) {
		return strconv.AppendQuote(b, s)
	}
	return append(b, s...)
}

func needsQuoting(s string) bool {
	if s == "" {
		return true
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c <= ' ' || c == '=' || c == '"' || c >= 0x7f {
			return true
		}
	}
	return false
}
