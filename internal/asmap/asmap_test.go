package asmap

import (
	"math/rand"
	"net/netip"
	"testing"
)

func TestNewDistributionErrors(t *testing.T) {
	if _, err := NewDistribution(nil); err == nil {
		t.Error("empty weights: want error")
	}
	if _, err := NewDistribution(map[uint32]float64{1: 0, 2: -3}); err == nil {
		t.Error("non-positive weights: want error")
	}
}

func TestDistributionSampleFrequencies(t *testing.T) {
	d, err := NewDistribution(map[uint32]float64{
		100: 0.7,
		200: 0.2,
		300: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.asns) != 3 {
		t.Fatalf("%d ASes, want 3", len(d.asns))
	}
	rng := rand.New(rand.NewSource(1))
	counts := map[uint32]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		counts[d.Sample(rng)]++
	}
	frac100 := float64(counts[100]) / n
	frac200 := float64(counts[200]) / n
	frac300 := float64(counts[300]) / n
	if frac100 < 0.67 || frac100 > 0.73 {
		t.Errorf("AS100 frequency = %.3f, want ~0.7", frac100)
	}
	if frac200 < 0.17 || frac200 > 0.23 {
		t.Errorf("AS200 frequency = %.3f, want ~0.2", frac200)
	}
	if frac300 < 0.08 || frac300 > 0.12 {
		t.Errorf("AS300 frequency = %.3f, want ~0.1", frac300)
	}
}

func TestPowerLawWeights(t *testing.T) {
	head := map[uint32]float64{
		3320: 0.08,
		4134: 0.05,
	}
	w := PowerLawWeights(head, 100, 60000, 1.0)
	if len(w) != 102 {
		t.Fatalf("len = %d, want 102", len(w))
	}
	total := 0.0
	for _, v := range w {
		if v <= 0 {
			t.Fatal("non-positive weight in result")
		}
		total += v
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("total mass = %v, want 1", total)
	}
	// Head shares preserved exactly.
	if w[3320] != 0.08 || w[4134] != 0.05 {
		t.Error("head shares altered")
	}
	// Tail is decreasing in rank.
	if w[60000] <= w[60001] {
		t.Error("tail weights must decrease with rank")
	}
}

func TestPowerLawWeightsFullHead(t *testing.T) {
	head := map[uint32]float64{1: 1.0}
	w := PowerLawWeights(head, 50, 60000, 1.0)
	if len(w) != 1 {
		t.Errorf("no tail expected when head consumes all mass; len = %d", len(w))
	}
}

func TestIPAllocatorRoundTrip(t *testing.T) {
	al := NewIPAllocator(1024)
	asns := []uint32{3320, 4134, 24940}
	seen := map[netip.Addr]uint32{}
	for round := 0; round < 100; round++ {
		for _, asn := range asns {
			ip, err := al.Alloc(asn)
			if err != nil {
				t.Fatal(err)
			}
			if prior, dup := seen[ip]; dup {
				t.Fatalf("duplicate IP %v (AS%d then AS%d)", ip, prior, asn)
			}
			seen[ip] = asn
			got, ok := al.ASNOf(ip)
			if !ok || got != asn {
				t.Fatalf("ASNOf(%v) = %d/%v, want %d", ip, got, ok, asn)
			}
		}
	}
}

func TestIPAllocatorExhaustion(t *testing.T) {
	al := NewIPAllocator(2)
	if _, err := al.Alloc(7); err != nil {
		t.Fatal(err)
	}
	if _, err := al.Alloc(7); err != nil {
		t.Fatal(err)
	}
	if _, err := al.Alloc(7); err == nil {
		t.Error("block exhaustion: want error")
	}
}

func TestASNOfForeignAddress(t *testing.T) {
	al := NewIPAllocator(16)
	if _, ok := al.ASNOf(netip.MustParseAddr("0.0.0.1")); ok {
		t.Error("address below base must not resolve")
	}
	if _, ok := al.ASNOf(netip.MustParseAddr("200.0.0.1")); ok {
		t.Error("unallocated block must not resolve")
	}
	if _, ok := al.ASNOf(netip.MustParseAddr("2001:db8::1")); ok {
		t.Error("IPv6 must not resolve")
	}
}

func TestCensusTopNAndCoverage(t *testing.T) {
	c := NewCensus()
	// AS1: 50 nodes, AS2: 30, AS3: 15, AS4: 5.
	for i := 0; i < 50; i++ {
		c.Add(1)
	}
	for i := 0; i < 30; i++ {
		c.Add(2)
	}
	for i := 0; i < 15; i++ {
		c.Add(3)
	}
	for i := 0; i < 5; i++ {
		c.Add(4)
	}
	if c.Total() != 100 {
		t.Fatalf("Total = %d, want 100", c.Total())
	}
	if c.NumASes() != 4 {
		t.Fatalf("NumASes = %d, want 4", c.NumASes())
	}
	top := c.TopN(2)
	if len(top) != 2 || top[0].ASN != 1 || top[1].ASN != 2 {
		t.Fatalf("TopN(2) = %+v", top)
	}
	if top[0].Pct != 50 {
		t.Errorf("top share = %v, want 50", top[0].Pct)
	}
	if got := c.CoverageCount(0.5); got != 1 {
		t.Errorf("CoverageCount(0.5) = %d, want 1", got)
	}
	if got := c.CoverageCount(0.8); got != 2 {
		t.Errorf("CoverageCount(0.8) = %d, want 2", got)
	}
	if got := c.CoverageCount(0.99); got != 4 {
		t.Errorf("CoverageCount(0.99) = %d, want 4", got)
	}
	if got := c.Share(1); got != 50 {
		t.Errorf("Share(1) = %v, want 50", got)
	}
	if got := c.Share(999); got != 0 {
		t.Errorf("Share(unknown) = %v, want 0", got)
	}
}

func TestCensusEmpty(t *testing.T) {
	c := NewCensus()
	if c.CoverageCount(0.5) != 0 {
		t.Error("empty census coverage should be 0")
	}
	if len(c.TopN(5)) != 0 {
		t.Error("empty census TopN should be empty")
	}
	if c.Share(1) != 0 {
		t.Error("empty census share should be 0")
	}
}

func TestCensusTopNMoreThanASes(t *testing.T) {
	c := NewCensus()
	c.Add(1)
	if got := c.TopN(10); len(got) != 1 {
		t.Errorf("TopN(10) over 1 AS = %d entries, want 1", len(got))
	}
}

func TestCensusDeterministicTieBreak(t *testing.T) {
	c := NewCensus()
	c.Add(30)
	c.Add(10)
	c.Add(20)
	top := c.TopN(3)
	if top[0].ASN != 10 || top[1].ASN != 20 || top[2].ASN != 30 {
		t.Errorf("ties must break by ASN ascending: %+v", top)
	}
}

func TestEndToEndPlacement(t *testing.T) {
	// A sampler + allocator pipeline recovers approximately the planted
	// distribution via a census over bare IPs, which is exactly the
	// Table I analysis flow.
	head := map[uint32]float64{3320: 0.30, 4134: 0.20}
	weights := PowerLawWeights(head, 50, 60000, 1.2)
	d, err := NewDistribution(weights)
	if err != nil {
		t.Fatal(err)
	}
	al := NewIPAllocator(1 << 16)
	rng := rand.New(rand.NewSource(5))
	census := NewCensus()
	var ips []netip.Addr
	for i := 0; i < 20000; i++ {
		asn := d.Sample(rng)
		ip, err := al.Alloc(asn)
		if err != nil {
			t.Fatal(err)
		}
		ips = append(ips, ip)
	}
	for _, ip := range ips {
		asn, ok := al.ASNOf(ip)
		if !ok {
			t.Fatalf("ASNOf(%v) failed", ip)
		}
		census.Add(asn)
	}
	if got := census.Share(3320); got < 27 || got > 33 {
		t.Errorf("AS3320 share = %.2f%%, want ~30%%", got)
	}
	if got := census.Share(4134); got < 17 || got > 23 {
		t.Errorf("AS4134 share = %.2f%%, want ~20%%", got)
	}
	if top := census.TopN(1); top[0].ASN != 3320 {
		t.Errorf("largest AS = %d, want 3320", top[0].ASN)
	}
}

func BenchmarkDistributionSample(b *testing.B) {
	weights := PowerLawWeights(map[uint32]float64{1: 0.1}, 8000, 60000, 1.1)
	d, err := NewDistribution(weights)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Sample(rng)
	}
}
