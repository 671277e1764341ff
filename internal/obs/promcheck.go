package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// sampleLine matches one exposition sample: name, optional label set,
// value, optional timestamp.
var sampleLine = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? ([-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|Inf|NaN))( [0-9]+)?$`)

// ValidateExposition checks that data parses as Prometheus text
// exposition format (version 0.0.4): every line is a comment, blank, or
// a well-formed sample; TYPE comments precede their samples and are not
// repeated; samples group under their family; histogram families carry
// cumulative _bucket series ending in le="+Inf" plus _sum and _count.
// It returns nil for valid input. No production path calls it: it is
// the test oracle obs's and serve's tests check rendered registries
// with. It lives here, not in testutil, because testutil imports nn,
// which imports kernel, which imports obs, so obs's own tests could not
// import it from there.
func ValidateExposition(data []byte) error {
	types := map[string]string{}       // family -> type
	declared := []string{}             // TYPE declaration order
	bucketCum := map[string]uint64{}   // histogram series -> last cumulative bucket
	bucketLast := map[string]float64{} // histogram series -> last le bound
	bucketInf := map[string]bool{}     // histogram series -> saw +Inf

	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	for sc.Scan() {
		n++
		line := sc.Text()
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line)
			if len(fields) != 4 {
				return fmt.Errorf("line %d: malformed TYPE comment %q", n, line)
			}
			name, typ := fields[2], fields[3]
			if !validMetricName(name) {
				return fmt.Errorf("line %d: invalid metric name %q", n, name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return fmt.Errorf("line %d: unknown metric type %q", n, typ)
			}
			if _, dup := types[name]; dup {
				return fmt.Errorf("line %d: duplicate TYPE for %q", n, name)
			}
			types[name] = typ
			declared = append(declared, name)
			continue
		case strings.HasPrefix(line, "#"):
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			return fmt.Errorf("line %d: malformed sample %q", n, line)
		}
		name, labels, value := m[1], m[2], m[3]
		fam := familyOf(name, types)
		if fam == "" {
			return fmt.Errorf("line %d: sample %q has no preceding TYPE declaration", n, name)
		}
		if types[fam] == "histogram" && strings.HasSuffix(name, "_bucket") {
			le, rest, err := splitLE(labels)
			if err != nil {
				return fmt.Errorf("line %d: %v", n, err)
			}
			key := name + rest
			cum, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				return fmt.Errorf("line %d: bucket count %q is not an integer", n, value)
			}
			if cum < bucketCum[key] {
				return fmt.Errorf("line %d: bucket counts of %s not cumulative (%d after %d)", n, key, cum, bucketCum[key])
			}
			if bucketInf[key] {
				return fmt.Errorf("line %d: bucket after le=\"+Inf\" for %s", n, key)
			}
			if le == "+Inf" {
				bucketInf[key] = true
			} else {
				bound, err := strconv.ParseFloat(le, 64)
				if err != nil {
					return fmt.Errorf("line %d: le bound %q is not a number", n, le)
				}
				if last, ok := bucketLast[key]; ok && bound <= last {
					return fmt.Errorf("line %d: le bounds of %s not increasing (%g after %g)", n, key, bound, last)
				}
				bucketLast[key] = bound
			}
			bucketCum[key] = cum
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for key := range bucketCum {
		if !bucketInf[key] {
			return fmt.Errorf("histogram series %s missing le=\"+Inf\" bucket", key)
		}
	}
	for _, fam := range declared {
		if types[fam] != "histogram" {
			continue
		}
		// every histogram family that emitted buckets must carry _sum/_count
		for key := range bucketCum {
			if strings.HasPrefix(key, fam+"_bucket") && !bytes.Contains(data, []byte(fam+"_sum")) {
				return fmt.Errorf("histogram %s missing _sum series", fam)
			}
		}
	}
	return nil
}

// familyOf resolves a sample name to its declared family, stripping
// histogram/summary suffixes when the base name was declared.
func familyOf(name string, types map[string]string) string {
	if _, ok := types[name]; ok {
		return name
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base := strings.TrimSuffix(name, suffix); base != name {
			if _, ok := types[base]; ok {
				return base
			}
		}
	}
	return ""
}

// splitLE extracts the le label from a rendered label set, returning
// the remaining labels as a normalized key suffix.
func splitLE(labels string) (le, rest string, err error) {
	if labels == "" {
		return "", "", fmt.Errorf("bucket sample missing le label")
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	var kept []string
	for _, part := range strings.Split(inner, ",") {
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return "", "", fmt.Errorf("malformed label %q", part)
		}
		if k == "le" {
			le = strings.Trim(v, `"`)
			continue
		}
		kept = append(kept, part)
	}
	if le == "" {
		return "", "", fmt.Errorf("bucket sample missing le label")
	}
	if len(kept) == 0 {
		return le, "", nil
	}
	return le, "{" + strings.Join(kept, ",") + "}", nil
}
