package metrics

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestMeanStdDev(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
	if StdDev([]float64{5}) != 0 {
		t.Fatal("StdDev of single value != 0")
	}
	// Population stddev of {2, 4} is 1.
	if got := StdDev([]float64{2, 4}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("StdDev = %v, want 1", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("empty Min/Max not infinite")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile != 0")
	}
	if got := Percentile(xs, 0); got != 10 {
		t.Fatalf("P0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 40 {
		t.Fatalf("P100 = %v", got)
	}
	if got := Percentile(xs, 50); math.Abs(got-25) > 1e-12 {
		t.Fatalf("P50 = %v, want 25", got)
	}
	// Percentile must not mutate its input.
	ys := []float64{3, 1, 2}
	Percentile(ys, 50)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Fatalf("input mutated: %v", ys)
	}
}

func TestFormatDuration(t *testing.T) {
	cases := map[float64]string{
		0:        "00:00:00.000",
		189.625:  "00:03:09.625",
		228.892:  "00:03:48.892",
		3661.001: "01:01:01.001",
	}
	for sec, want := range cases {
		if got := FormatDuration(sec); got != want {
			t.Errorf("FormatDuration(%v) = %q, want %q", sec, got, want)
		}
	}
	if got := FormatDuration(-1.5); got != "-00:00:01.500" {
		t.Errorf("negative = %q", got)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Table X", "col", "value")
	tab.AddRow("a", "1")
	tab.AddRowF("b", 2.5, "extra-dropped")
	tab.AddRowF("c", 7)
	if tab.Rows() != 3 {
		t.Fatalf("Rows = %d", tab.Rows())
	}
	s := tab.String()
	for _, want := range []string{"Table X", "col", "value", "a", "2.50000", "7"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
	// Every line has the same visual structure: header, separator, rows.
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 1+2+3 {
		t.Fatalf("line count = %d:\n%s", len(lines), s)
	}
	tsv := tab.TSV()
	if !strings.HasPrefix(tsv, "col\tvalue\n") {
		t.Fatalf("TSV header = %q", tsv)
	}
	if !strings.Contains(tsv, "a\t1\n") {
		t.Fatalf("TSV rows = %q", tsv)
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tab := NewTable("", "a", "b", "c")
	tab.AddRow("only")
	s := tab.String()
	if !strings.Contains(s, "only") {
		t.Fatal("row lost")
	}
}

// Property: Mean is within [Min, Max]; StdDev is non-negative;
// Percentile is monotone in p.
func TestPropertyStatsConsistent(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, int(n)+2)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		m := Mean(xs)
		if m < Min(xs)-1e-9 || m > Max(xs)+1e-9 {
			return false
		}
		if StdDev(xs) < 0 {
			return false
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := Percentile(xs, p)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: FormatDuration round-trips the hour/minute/second split.
func TestPropertyFormatDurationParses(t *testing.T) {
	f := func(ms uint32) bool {
		sec := float64(ms%86_400_000) / 1000
		s := FormatDuration(sec)
		var h, m, ss, mmm int
		if _, err := fmtSscanf(s, &h, &m, &ss, &mmm); err != nil {
			return false
		}
		back := float64(h)*3600 + float64(m)*60 + float64(ss) + float64(mmm)/1000
		return math.Abs(back-sec) < 0.002
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// fmtSscanf parses HH:MM:SS.mmm.
func fmtSscanf(s string, h, m, ss, mmm *int) (int, error) {
	return sscanf(s, h, m, ss, mmm)
}

func sscanf(s string, h, m, ss, mmm *int) (int, error) {
	var err error
	n := 0
	parse := func(sub string, dst *int) {
		if err != nil {
			return
		}
		v := 0
		for _, c := range sub {
			if c < '0' || c > '9' {
				err = errBadFormat
				return
			}
			v = v*10 + int(c-'0')
		}
		*dst = v
		n++
	}
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return 0, errBadFormat
	}
	parse(parts[0], h)
	parse(parts[1], m)
	secParts := strings.Split(parts[2], ".")
	if len(secParts) != 2 {
		return 0, errBadFormat
	}
	parse(secParts[0], ss)
	parse(secParts[1], mmm)
	return n, err
}

var errBadFormat = errors.New("bad duration format")

func BenchmarkPercentile(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Percentile(xs, 95)
	}
}

func TestSummarize(t *testing.T) {
	if got := Summarize(nil); got.N != 0 || got.String() != "n=0" {
		t.Fatalf("empty summary = %+v", got)
	}
	xs := []float64{1, 2, 3, 4, 5}
	s := Summarize(xs)
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if !strings.Contains(s.String(), "mean=3.00") {
		t.Fatalf("String = %q", s.String())
	}
}

// TestSummarizeMatchesPercentile checks that Summarize's single sorted
// copy yields bit-for-bit the percentiles of separate Percentile calls,
// over random samples with duplicates, single-element samples, and
// without touching the input.
func TestSummarizeMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 500; iter++ {
		n := 1 + rng.Intn(300)
		if iter%10 == 0 {
			n = 1
		}
		xs := make([]float64, n)
		for i := range xs {
			if rng.Intn(3) == 0 && i > 0 {
				xs[i] = xs[rng.Intn(i)] // duplicate
			} else {
				xs[i] = rng.NormFloat64() * 100
			}
		}
		orig := append([]float64(nil), xs...)
		s := Summarize(xs)
		for _, c := range []struct {
			got float64
			p   float64
		}{{s.P50, 50}, {s.P95, 95}, {s.P99, 99}} {
			if want := Percentile(xs, c.p); math.Float64bits(c.got) != math.Float64bits(want) {
				t.Fatalf("n=%d p%v: Summarize %v, Percentile %v", n, c.p, c.got, want)
			}
		}
		if s.N != n || s.Mean != Mean(xs) || s.Std != StdDev(xs) || s.Min != Min(xs) || s.Max != Max(xs) {
			t.Fatalf("n=%d: summary %+v", n, s)
		}
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
				t.Fatal("Summarize mutated its input")
			}
		}
	}
}
