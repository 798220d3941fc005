// Package units provides byte-size and bandwidth quantities with SI/IEC
// helpers, used throughout the simulator for readable configuration and
// reporting. Bandwidths are plain float64 bytes-per-second at the sim layer;
// this package supplies the named constants and formatting.
package units

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Bytes is a data size in bytes.
type Bytes int64

// IEC (binary) sizes: what IOR means by "1m block size".
const (
	KiB Bytes = 1 << 10
	MiB Bytes = 1 << 20
	GiB Bytes = 1 << 30
	TiB Bytes = 1 << 40
	PiB Bytes = 1 << 50
)

// SI (decimal) sizes: what device vendors mean by "GB".
const (
	KB Bytes = 1e3
	MB Bytes = 1e6
	GB Bytes = 1e9
	TB Bytes = 1e12
	PB Bytes = 1e15
)

// Float returns the size as a float64 for rate arithmetic.
func (b Bytes) Float() float64 { return float64(b) }

// String renders the size with an IEC suffix, e.g. "1.5 GiB".
func (b Bytes) String() string {
	v := float64(b)
	neg := v < 0
	if neg {
		v = -v
	}
	suffixes := []struct {
		limit float64
		name  string
	}{
		{float64(PiB), "PiB"},
		{float64(TiB), "TiB"},
		{float64(GiB), "GiB"},
		{float64(MiB), "MiB"},
		{float64(KiB), "KiB"},
	}
	out := fmt.Sprintf("%d B", int64(b))
	for _, s := range suffixes {
		if v >= s.limit {
			out = trimZeros(fmt.Sprintf("%.2f", v/s.limit)) + " " + s.name
			break
		}
	}
	if neg && out[0] != '-' {
		out = "-" + out
	}
	return out
}

// BPS is a bandwidth in bytes per second.
type BPS float64

// Common bandwidth magnitudes (decimal, matching vendor link specs).
const (
	MBps BPS = 1e6
	GBps BPS = 1e9
)

// Gbit converts a link speed in gigabits/s (how networks are specified) to
// bytes/s.
func Gbit(gigabits float64) BPS { return BPS(gigabits * 1e9 / 8) }

// Float returns the bandwidth as float64 bytes/sec.
func (r BPS) Float() float64 { return float64(r) }

// GB returns the bandwidth expressed in decimal GB/s (the unit used by the
// paper's figures).
func (r BPS) GB() float64 { return float64(r) / 1e9 }

// String renders the bandwidth, e.g. "12.5 GB/s".
func (r BPS) String() string {
	v := float64(r)
	switch {
	case v >= 1e9:
		return trimZeros(fmt.Sprintf("%.2f", v/1e9)) + " GB/s"
	case v >= 1e6:
		return trimZeros(fmt.Sprintf("%.2f", v/1e6)) + " MB/s"
	case v >= 1e3:
		return trimZeros(fmt.Sprintf("%.2f", v/1e3)) + " KB/s"
	default:
		return trimZeros(fmt.Sprintf("%.2f", v)) + " B/s"
	}
}

// ParseDuration parses strings like "10ms", "1.5s", "2m30s" into a
// duration. A bare number is taken as seconds (the convention of fault
// schedules and benchmark configs, where sub-second offsets are the
// exception). Negative durations are rejected: no schedule event or timeout
// can point into the past.
func ParseDuration(s string) (time.Duration, error) {
	// Errors quote a copy of s, so s does not escape and a caller that
	// converts a short []byte to call ParseDuration allocates nothing.
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, fmt.Errorf("units: empty duration")
	}
	// A sign check on the parsed value misses negative zero ("-0", "-0s"):
	// IEEE -0.0 < 0 is false. Reject the minus itself.
	if strings.HasPrefix(t, "-") {
		return 0, fmt.Errorf("units: negative duration %q", strings.Clone(s))
	}
	// No float syntax ends in s, m or h, so a unit-suffixed duration skips
	// the doomed ParseFloat and the error it allocates.
	if c := t[len(t)-1]; c != 's' && c != 'm' && c != 'h' {
		if v, err := strconv.ParseFloat(t, 64); err == nil {
			// ParseFloat accepts "NaN" and "Inf"; reject them and anything
			// that overflows an int64 nanosecond count before converting.
			if v != v || v < 0 || v > float64(1<<62)/float64(time.Second) {
				return 0, fmt.Errorf("units: duration %q out of range", strings.Clone(s))
			}
			return time.Duration(v * float64(time.Second)), nil
		}
	}
	d, err := time.ParseDuration(t)
	if err != nil {
		return 0, fmt.Errorf("units: cannot parse duration %q", strings.Clone(s))
	}
	if d < 0 {
		return 0, fmt.Errorf("units: negative duration %q", strings.Clone(s))
	}
	return d, nil
}

func trimZeros(s string) string {
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// ParseBytes parses strings like "1m", "256k", "4g", "120GiB", "150KB" into
// a byte count. Bare suffix letters are IEC (1m = 1 MiB), matching IOR's
// command-line convention; explicit "KB"/"MB" are decimal; "KiB"/"MiB" are
// binary.
func ParseBytes(s string) (Bytes, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, fmt.Errorf("units: empty size")
	}
	lower := strings.ToLower(t)
	mult := Bytes(1)
	num := lower
	switch {
	case strings.HasSuffix(lower, "pib"), strings.HasSuffix(lower, "p") && !strings.HasSuffix(lower, "pb"):
		mult, num = PiB, strings.TrimSuffix(strings.TrimSuffix(lower, "ib"), "p")
	case strings.HasSuffix(lower, "pb"):
		mult, num = PB, strings.TrimSuffix(lower, "pb")
	case strings.HasSuffix(lower, "tib"):
		mult, num = TiB, strings.TrimSuffix(lower, "tib")
	case strings.HasSuffix(lower, "tb"):
		mult, num = TB, strings.TrimSuffix(lower, "tb")
	case strings.HasSuffix(lower, "t"):
		mult, num = TiB, strings.TrimSuffix(lower, "t")
	case strings.HasSuffix(lower, "gib"):
		mult, num = GiB, strings.TrimSuffix(lower, "gib")
	case strings.HasSuffix(lower, "gb"):
		mult, num = GB, strings.TrimSuffix(lower, "gb")
	case strings.HasSuffix(lower, "g"):
		mult, num = GiB, strings.TrimSuffix(lower, "g")
	case strings.HasSuffix(lower, "mib"):
		mult, num = MiB, strings.TrimSuffix(lower, "mib")
	case strings.HasSuffix(lower, "mb"):
		mult, num = MB, strings.TrimSuffix(lower, "mb")
	case strings.HasSuffix(lower, "m"):
		mult, num = MiB, strings.TrimSuffix(lower, "m")
	case strings.HasSuffix(lower, "kib"):
		mult, num = KiB, strings.TrimSuffix(lower, "kib")
	case strings.HasSuffix(lower, "kb"):
		mult, num = KB, strings.TrimSuffix(lower, "kb")
	case strings.HasSuffix(lower, "k"):
		mult, num = KiB, strings.TrimSuffix(lower, "k")
	case strings.HasSuffix(lower, "b"):
		num = strings.TrimSuffix(lower, "b")
	}
	num = strings.TrimSpace(num)
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("units: cannot parse size %q: %v", s, err)
	}
	if v != v || v < 0 {
		return 0, fmt.Errorf("units: negative size %q", s)
	}
	if v*float64(mult) > float64(1<<62) {
		return 0, fmt.Errorf("units: size %q out of range", s)
	}
	return Bytes(v * float64(mult)), nil
}
