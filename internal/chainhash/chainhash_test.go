package chainhash

import (
	"encoding/hex"
	"strings"
	"testing"
	"testing/quick"
)

func TestDoubleSHA256KnownVector(t *testing.T) {
	// SHA256(SHA256("hello")) =
	// 9595c9df90075148eb06860365df33584b75bff782a510c6cd4883a419833d50
	got := DoubleSHA256([]byte("hello"))
	// String() reverses, so compare against the reversed rendering.
	want := "503d8319a48348cdc610a582f7bf754b5833df65038606eb48510790dfc99595"
	if got.String() != want {
		t.Errorf("DoubleSHA256(hello) = %s, want %s", got.String(), want)
	}
}

func TestStringRoundTrip(t *testing.T) {
	h := DoubleSHA256([]byte("round trip"))
	parsed, err := NewHashFromStr(h.String())
	if err != nil {
		t.Fatal(err)
	}
	if parsed != h {
		t.Errorf("round trip mismatch: %s vs %s", parsed, h)
	}
}

func TestNewHashFromStrShort(t *testing.T) {
	h, err := NewHashFromStr("1")
	if err != nil {
		t.Fatal(err)
	}
	if h[0] != 1 {
		t.Errorf("h[0] = %d, want 1", h[0])
	}
	if !strings.HasSuffix(h.String(), "01") {
		t.Errorf("String() = %s, want ...01", h.String())
	}
}

func TestNewHashFromStrErrors(t *testing.T) {
	if _, err := NewHashFromStr(strings.Repeat("ab", 33)); err == nil {
		t.Error("overlong input: want error")
	}
	if _, err := NewHashFromStr("zz"); err == nil {
		t.Error("non-hex input: want error")
	}
}

func TestIsZero(t *testing.T) {
	var z Hash
	if !z.IsZero() {
		t.Error("zero hash should report IsZero")
	}
	h := DoubleSHA256(nil)
	if h.IsZero() {
		t.Error("hash of empty input should not be zero")
	}
}

func TestChecksumMatchesPrefix(t *testing.T) {
	data := []byte("checksum me")
	full := DoubleSHA256(data)
	sum := Checksum(data)
	for i := 0; i < 4; i++ {
		if sum[i] != full[i] {
			t.Fatalf("checksum byte %d = %x, want %x", i, sum[i], full[i])
		}
	}
}

// Property: String/NewHashFromStr round-trips for arbitrary hashes.
func TestHashStringRoundTripProperty(t *testing.T) {
	f := func(raw [HashSize]byte) bool {
		h := Hash(raw)
		back, err := NewHashFromStr(h.String())
		return err == nil && back == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: distinct inputs produce distinct digests (collision would be
// astonishing; this mostly guards against accidental truncation bugs).
func TestDoubleSHA256Injective(t *testing.T) {
	f := func(a, b []byte) bool {
		if string(a) == string(b) {
			return true
		}
		return DoubleSHA256(a) != DoubleSHA256(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPrefixIsStringPrefix(t *testing.T) {
	f := func(data []byte) bool {
		h := DoubleSHA256(data)
		p := h.Prefix()
		return hex.EncodeToString(p[:]) == h.String()[:16]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
