package chaos_test

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"rt3/internal/chaos"
	"rt3/internal/loadgen"
	"rt3/internal/mat"
	"rt3/internal/serve"
)

// instant is a Submitter that answers every request at once with an
// empty result: what the load driver offers is all that is measured.
type instant struct{}

func (instant) Submit(uint64, []int) (<-chan serve.Response, error) {
	ch := make(chan serve.Response, 1)
	ch <- serve.Response{Out: mat.New(1, 2)}
	return ch, nil
}

func (instant) SubmitGen(uint64, []int, int, int) (<-chan serve.GenResponse, error) {
	ch := make(chan serve.GenResponse, 1)
	ch <- serve.GenResponse{}
	return ch, nil
}

// Trace inputs that used to pass validation: a rate whose arrival gap
// overflows a Duration (the virtual clock then never advanced and the
// run flooded the router forever), and a GLUE task the example generator
// panics on.
const (
	tinyRateTrace    = `{"version":1,"name":"x","buckets":[{"duration_ms":100,"rps":1e-12}]}`
	unknownTaskTrace = `{"version":1,"name":"x","classify_fraction":0.5,"glue_task":"SQuAD","buckets":[{"duration_ms":100,"rps":100}]}`
)

// TestParseTraceRejects: every malformed trace is refused at parse time,
// with an error naming the trace, before any run can start on it.
func TestParseTraceRejects(t *testing.T) {
	bucket := func(body string) string { return `{"version":1,"name":"x","buckets":[` + body + `]}` }
	for name, in := range map[string]string{
		"gap overflows a Duration":   tinyRateTrace,
		"gap longer than the trace":  bucket(`{"duration_ms":100,"rps":5}`),
		"gap under a nanosecond":     bucket(`{"duration_ms":100,"rps":1e10}`),
		"unknown glue task":          unknownTaskTrace,
		"unknown glue task, unused":  `{"version":1,"name":"x","glue_task":"sst2","buckets":[{"duration_ms":100,"rps":100}]}`,
		"zero rate":                  bucket(`{"duration_ms":100,"rps":0}`),
		"negative window":            bucket(`{"duration_ms":-5,"rps":100}`),
		"window over a day":          bucket(`{"duration_ms":86400001,"rps":100}`),
		"windows summing over a day": bucket(`{"duration_ms":50000000,"rps":100},{"duration_ms":50000000,"rps":100}`),
		"a million sessions":         `{"version":1,"name":"x","sessions":1000000,"buckets":[{"duration_ms":100,"rps":100}]}`,
		"fraction above one":         `{"version":1,"name":"x","classify_fraction":1.5,"glue_task":"RTE","buckets":[{"duration_ms":100,"rps":100}]}`,
		"not JSON":                   `{"version":1,`,
	} {
		spec, err := chaos.ParseTrace([]byte(in))
		if err == nil {
			t.Errorf("%s: accepted as %+v", name, spec)
		} else if !strings.HasPrefix(err.Error(), "chaos: ") {
			t.Errorf("%s: error %q does not say where it came from", name, err)
		}
	}
	// the boundary cases are legal: one arrival gap exactly as long as the
	// trace, and the widest counts
	for name, in := range map[string]string{
		"gap equals the trace": bucket(`{"duration_ms":100,"rps":10}`),
		"1024 sessions":        `{"version":1,"name":"x","sessions":1024,"buckets":[{"duration_ms":100,"rps":100}]}`,
	} {
		if _, err := chaos.ParseTrace([]byte(in)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestBuiltinTraceOfferedCounts pins what the builtin traces offer at
// scale 1 — 201 and 204 arrivals, the counts every arm of the chaos
// matrix reports — and that the mix draws on both traffic kinds.
func TestBuiltinTraceOfferedCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("replays both traces in real time (1.65 s)")
	}
	for name, want := range map[string]int{"diurnal": 201, "flashcrowd": 204} {
		ts, err := chaos.LoadBuiltinTrace(name)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := loadgen.Run(instant{}, ts.Spec(1, 1))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Offered != want || rep.Completed() != want || rep.GenOffered == 0 || rep.ClsOffered == 0 {
			t.Errorf("%s: offered %d (gen %d, cls %d), completed %d, want %d of both kinds",
				name, rep.Offered, rep.GenOffered, rep.ClsOffered, rep.Completed(), want)
		}
	}
}

// FuzzParseTrace: arbitrary bytes never panic the parser; whatever it
// accepts survives a marshal / re-parse round trip unchanged and drives
// a zero-latency target to a finite offered count (compressed to a
// 100 µs window, so a spec that would spin or flood does so here).
func FuzzParseTrace(f *testing.F) {
	for _, name := range chaos.BuiltinTraces() {
		b, err := os.ReadFile("testdata/" + name + ".json")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(tinyRateTrace))
	f.Add([]byte(unknownTaskTrace))
	f.Fuzz(func(t *testing.T, in []byte) {
		spec, err := chaos.ParseTrace(in)
		if err != nil {
			return
		}
		out, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		again, err := chaos.ParseTrace(out)
		if err != nil {
			t.Fatalf("accepted spec does not re-parse: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Fatalf("round trip changed the spec:\n%+v\n%+v", spec, again)
		}
		window := 100 * time.Microsecond
		rep, err := loadgen.Run(instant{}, spec.Spec(1, float64(window)/float64(spec.Duration())))
		if err != nil {
			t.Fatalf("accepted spec does not run: %v\n%s", err, out)
		}
		// a gap is at least a nanosecond
		if rep.Offered > int(window) || rep.Completed() != rep.Offered {
			t.Fatalf("offered %d, completed %d in a %s window", rep.Offered, rep.Completed(), window)
		}
	})
}
