package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// LogLevel orders logger severities; messages below the logger's level
// are discarded before formatting.
type LogLevel int32

const (
	LogDebug LogLevel = iota
	LogInfo
	LogWarn
	LogError
)

func (l LogLevel) String() string {
	switch l {
	case LogDebug:
		return "debug"
	case LogInfo:
		return "info"
	case LogWarn:
		return "warn"
	case LogError:
		return "error"
	default:
		return fmt.Sprintf("level(%d)", int32(l))
	}
}

// LevelFromFlags maps the conventional -quiet/-v flag pair to a level:
// quiet wins (warnings and errors only), -v enables debug, otherwise
// info.
func LevelFromFlags(quiet, verbose bool) LogLevel {
	switch {
	case quiet:
		return LogWarn
	case verbose:
		return LogDebug
	default:
		return LogInfo
	}
}

// Logger is a minimal leveled logger for command progress output and
// autotuner decision lines. It serializes writes, timestamps each line,
// and is nil-safe: a nil *Logger discards everything, so library code
// can hold one unconditionally.
type Logger struct {
	mu     sync.Mutex
	out    io.Writer
	prefix string
	level  atomic.Int32
}

// NewLogger writes lines at or above level to out with the given
// prefix (e.g. "rt3serve: ").
func NewLogger(out io.Writer, prefix string, level LogLevel) *Logger {
	l := &Logger{out: out, prefix: prefix}
	l.level.Store(int32(level))
	return l
}

// Enabled reports whether a message at level would be emitted, letting
// callers skip expensive argument construction.
func (l *Logger) Enabled(level LogLevel) bool {
	return l != nil && level >= LogLevel(l.level.Load())
}

func (l *Logger) logf(level LogLevel, format string, args ...any) {
	if !l.Enabled(level) {
		return
	}
	msg := fmt.Sprintf(format, args...)
	now := time.Now().Format("15:04:05.000")
	l.mu.Lock()
	fmt.Fprintf(l.out, "%s %-5s %s%s\n", now, level, l.prefix, msg)
	l.mu.Unlock()
}

// Debugf logs at debug level (per-decision autotuner lines, span noise).
func (l *Logger) Debugf(format string, args ...any) { l.logf(LogDebug, format, args...) }

// Infof logs at info level (progress output, run summaries).
func (l *Logger) Infof(format string, args ...any) { l.logf(LogInfo, format, args...) }

// Errorf logs at error level (failures the run continues past).
func (l *Logger) Errorf(format string, args ...any) { l.logf(LogError, format, args...) }
