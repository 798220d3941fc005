package units

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// FuzzParseSize asserts ParseBytes never panics and that every accepted
// input yields a non-negative size that survives a format/re-parse cycle
// within float rounding.
func FuzzParseSize(f *testing.F) {
	for _, seed := range []string{
		"1m", "256k", "4g", "120GiB", "150KB", "0", "1.5t", " 2 MiB ",
		"1p", "3pb", "9e18", "-1m", "NaN", "Inf", "1e400", "bb", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		b, err := ParseBytes(s)
		if err != nil {
			return
		}
		if b < 0 {
			t.Fatalf("ParseBytes(%q) = %d, negative size accepted", s, b)
		}
		// The String form must itself be parseable (the CLI prints sizes
		// that users paste back into flags).
		if _, err := ParseBytes(b.String()); err != nil {
			t.Fatalf("ParseBytes(%q) = %v, but its String %q does not re-parse: %v", s, b, b.String(), err)
		}
	})
}

// FuzzParseDuration asserts ParseDuration never panics, rejects negatives
// and non-finite values, and only returns non-negative durations. It also
// pins the premise of the bare-seconds shortcut: strconv.ParseFloat
// rejects every input ending in s, m or h, so skipping it for them
// changes no result.
func FuzzParseDuration(f *testing.F) {
	for _, seed := range []string{
		"10ms", "1.5s", "2m30s", "1", "0.001", "-1s", "NaN", "+Inf",
		"1e100", "9223372036", "", " 5s ", "3h", "soon",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if tr := strings.TrimSpace(s); tr != "" {
			switch tr[len(tr)-1] {
			case 's', 'm', 'h':
				if v, err := strconv.ParseFloat(tr, 64); err == nil {
					t.Fatalf("strconv.ParseFloat(%q) = %v, but ParseDuration skips it for a unit suffix", tr, v)
				}
			}
		}
		d, err := ParseDuration(s)
		if err != nil {
			return
		}
		if d < 0 {
			t.Fatalf("ParseDuration(%q) = %v, negative duration accepted", s, d)
		}
		if strings.HasPrefix(strings.TrimSpace(s), "-") {
			t.Fatalf("ParseDuration(%q) = %v, accepted a leading minus", s, d)
		}
		_ = time.Duration(d)
	})
}
