package obs

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Point is one time-series sample. Times are (virtual) timestamps, so
// under the simnet clock two same-seed runs produce identical points.
type Point struct {
	// T is the sample time.
	T time.Time
	// V is the sampled value.
	V float64
}

// Series is one named sequence of points, oldest first. It is plain
// data: safe to retain, compare, and render after the run ends.
type Series struct {
	// Name identifies the series (metric name plus a .delta/.p50/...
	// suffix for sampled registry metrics).
	Name string
	// Points holds the samples, oldest first.
	Points []Point
}

// SeriesSet is a name-sorted collection of series — the time-resolved
// counterpart of a Snapshot.
type SeriesSet struct {
	// Series holds the member series sorted by name.
	Series []Series
}

// Get returns the named series and whether it exists.
func (ss *SeriesSet) Get(name string) (*Series, bool) {
	if ss == nil {
		return nil, false
	}
	i := sort.Search(len(ss.Series), func(i int) bool { return ss.Series[i].Name >= name })
	if i < len(ss.Series) && ss.Series[i].Name == name {
		return &ss.Series[i], true
	}
	return nil, false
}

// Len returns the total point count across all series.
func (ss *SeriesSet) Len() int {
	if ss == nil {
		return 0
	}
	n := 0
	for i := range ss.Series {
		n += len(ss.Series[i].Points)
	}
	return n
}

// seriesCSVHeader is the sidecar header row. t_ns is the absolute sample
// time in Unix nanoseconds: the simnet epoch is deterministic, so the
// column round-trips byte-identically across same-seed runs.
var seriesCSVHeader = []string{"series", "t_ns", "value"}

// WriteCSV encodes the set in the *_timeseries.csv sidecar format: one
// row per point, series sorted by name, points oldest first. Values are
// rendered with strconv 'g'/-1 formatting, which ParseFloat inverts
// exactly — the encoder and decoder round-trip bit-for-bit, a property
// FuzzSeriesCSVRoundTrip pins.
func (ss *SeriesSet) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(seriesCSVHeader); err != nil {
		return fmt.Errorf("obs: series header: %w", err)
	}
	if ss != nil {
		for i := range ss.Series {
			s := &ss.Series[i]
			for _, p := range s.Points {
				row := []string{
					s.Name,
					strconv.FormatInt(p.T.UnixNano(), 10),
					strconv.FormatFloat(p.V, 'g', -1, 64),
				}
				if err := cw.Write(row); err != nil {
					return fmt.Errorf("obs: series %s: %w", s.Name, err)
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// EncodeCSV renders the sidecar into a string (for comparisons and
// report embedding).
func (ss *SeriesSet) EncodeCSV() (string, error) {
	var b strings.Builder
	if err := ss.WriteCSV(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// maxSeriesCSVPoints bounds what the decoder will accept, so untrusted
// sidecar bytes cannot balloon memory.
const maxSeriesCSVPoints = 1 << 22

// ReadSeriesCSV decodes a *_timeseries.csv sidecar. The input is
// untrusted: rows must match the header shape, timestamps must be valid
// integers, and values valid floats, or an error is returned. Series are
// returned name-sorted regardless of input order; points keep their
// input order within each series.
func ReadSeriesCSV(r io.Reader) (*SeriesSet, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(seriesCSVHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("obs: series csv header: %w", err)
	}
	for i, want := range seriesCSVHeader {
		if header[i] != want {
			return nil, fmt.Errorf("obs: series csv: bad header column %d: %q", i, header[i])
		}
	}
	byName := make(map[string]*Series)
	var order []string
	points := 0
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("obs: series csv: %w", err)
		}
		name := row[0]
		if name == "" {
			return nil, fmt.Errorf("obs: series csv: empty series name")
		}
		ns, err := strconv.ParseInt(row[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("obs: series csv: bad t_ns %q: %w", row[1], err)
		}
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			return nil, fmt.Errorf("obs: series csv: bad value %q: %w", row[2], err)
		}
		if points++; points > maxSeriesCSVPoints {
			return nil, fmt.Errorf("obs: series csv: more than %d points", maxSeriesCSVPoints)
		}
		s := byName[name]
		if s == nil {
			s = &Series{Name: name}
			byName[name] = s
			order = append(order, name)
		}
		s.Points = append(s.Points, Point{T: time.Unix(0, ns).UTC(), V: v})
	}
	sort.Strings(order)
	ss := &SeriesSet{Series: make([]Series, 0, len(order))}
	for _, name := range order {
		ss.Series = append(ss.Series, *byName[name])
	}
	return ss, nil
}
