package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestLevelFromFlags(t *testing.T) {
	cases := []struct {
		quiet, verbose bool
		want           LogLevel
	}{
		{false, false, LogInfo},
		{true, false, LogWarn},
		{false, true, LogDebug},
		{true, true, LogWarn}, // quiet wins
	}
	for _, c := range cases {
		if got := LevelFromFlags(c.quiet, c.verbose); got != c.want {
			t.Errorf("LevelFromFlags(%v, %v) = %v, want %v", c.quiet, c.verbose, got, c.want)
		}
	}
}

func TestLoggerLevels(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, "rt3serve: ", LogInfo)
	l.Debugf("hidden %d", 1)
	l.Infof("shown %d", 2)
	l.Errorf("failed")
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Fatalf("debug line emitted at info level:\n%s", out)
	}
	if !strings.Contains(out, "rt3serve: shown 2") || !strings.Contains(out, "failed") {
		t.Fatalf("missing expected lines:\n%s", out)
	}
	if !l.Enabled(LogError) || l.Enabled(LogDebug) {
		t.Fatalf("Enabled thresholds wrong at info level")
	}

	buf.Reset()
	l = NewLogger(&buf, "", LogWarn)
	l.Infof("quieted")
	if buf.Len() != 0 {
		t.Fatalf("info line emitted at warn level: %q", buf.String())
	}
	if l.Level() != LogWarn {
		t.Fatalf("Level = %v, want warn", l.Level())
	}
}

func TestLoggerNilSafe(t *testing.T) {
	var l *Logger
	l.Debugf("a")
	l.Infof("b")
	l.Errorf("d")
	if l.Enabled(LogError) {
		t.Fatalf("nil logger claims enabled")
	}
}

func TestLoggerConcurrent(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, "", LogDebug)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				l.Infof("g%d-%d", i, j)
			}
		}(i)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 400 {
		t.Fatalf("got %d lines, want 400", len(lines))
	}
}
