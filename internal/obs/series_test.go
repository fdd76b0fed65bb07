package obs

import (
	"math"
	"strings"
	"testing"
	"time"
)

func testSeriesSet() *SeriesSet {
	t0 := time.Unix(1585958400, 0).UTC()
	return &SeriesSet{Series: []Series{
		{Name: "a.delta", Points: []Point{
			{T: t0, V: 0},
			{T: t0.Add(2 * time.Minute), V: 3.25},
			{T: t0.Add(4 * time.Minute), V: -1e-9},
		}},
		{Name: "b.p99", Points: []Point{
			{T: t0, V: math.Pi},
			{T: t0.Add(time.Minute), V: 1.0 / 3.0},
		}},
	}}
}

func TestSeriesCSVRoundTrip(t *testing.T) {
	set := testSeriesSet()
	enc, err := set.EncodeCSV()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := ReadSeriesCSV(strings.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	re, err := dec.EncodeCSV()
	if err != nil {
		t.Fatal(err)
	}
	if re != enc {
		t.Fatalf("round trip changed bytes:\n%s\nvs\n%s", enc, re)
	}
	// Values must survive exactly, including irrationals and tiny
	// negatives — 'g'/-1 formatting is ParseFloat's exact inverse.
	b, ok := dec.Get("b.p99")
	if !ok || b.Points[0].V != math.Pi {
		t.Errorf("pi did not round-trip: %+v", b)
	}
	a, _ := dec.Get("a.delta")
	if a.Points[2].V != -1e-9 {
		t.Errorf("small negative did not round-trip: %v", a.Points[2].V)
	}
}

func TestReadSeriesCSVRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"bad header":   "wrong,t_ns,value\n",
		"short row":    "series,t_ns,value\nx,1\n",
		"bad time":     "series,t_ns,value\nx,notanint,1\n",
		"bad value":    "series,t_ns,value\nx,1,notafloat\n",
		"empty name":   "series,t_ns,value\n,1,2\n",
		"empty stream": "",
	}
	for label, in := range cases {
		if _, err := ReadSeriesCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: decode accepted %q", label, in)
		}
	}
}

func TestSeriesSetGetAndLen(t *testing.T) {
	set := testSeriesSet()
	if set.Len() != 5 {
		t.Errorf("Len = %d, want 5", set.Len())
	}
	if _, ok := set.Get("missing"); ok {
		t.Error("Get found a missing series")
	}
	if s, ok := set.Get("a.delta"); !ok || len(s.Points) != 3 {
		t.Errorf("Get(a.delta) = %+v, %v", s, ok)
	}
	var nilSet *SeriesSet
	if nilSet.Len() != 0 {
		t.Error("nil set has nonzero Len")
	}
	if _, ok := nilSet.Get("x"); ok {
		t.Error("nil set Get succeeded")
	}
}

// FuzzSeriesCSVRoundTrip pins the decoder against untrusted sidecar
// bytes (it must error or succeed, never panic) and, when a parse
// succeeds, pins encode∘decode as a fixpoint: re-encoding the decoded
// set and decoding again must reproduce the same bytes.
func FuzzSeriesCSVRoundTrip(f *testing.F) {
	if enc, err := testSeriesSet().EncodeCSV(); err == nil {
		f.Add([]byte(enc))
	}
	f.Add([]byte("series,t_ns,value\nx,1,2\n"))
	f.Add([]byte("series,t_ns,value\nx,1,NaN\nx,2,+Inf\n"))
	f.Add([]byte("series,t_ns,value\n"))
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		set, err := ReadSeriesCSV(strings.NewReader(string(data)))
		if err != nil {
			return
		}
		enc, err := set.EncodeCSV()
		if err != nil {
			t.Fatalf("encode of decoded set failed: %v", err)
		}
		set2, err := ReadSeriesCSV(strings.NewReader(enc))
		if err != nil {
			t.Fatalf("canonical form did not re-decode: %v\n%s", err, enc)
		}
		enc2, err := set2.EncodeCSV()
		if err != nil {
			t.Fatal(err)
		}
		if enc2 != enc {
			t.Fatalf("encode∘decode is not a fixpoint:\n%s\nvs\n%s", enc, enc2)
		}
	})
}
