package chainhash

import (
	"encoding/hex"
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

// unreverse undoes String: hex-decode, then reverse the byte order.
func unreverse(t *testing.T, s string) Hash {
	t.Helper()
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != HashSize {
		t.Fatalf("String() = %q: %d bytes, %v", s, len(raw), err)
	}
	var h Hash
	for i, b := range raw {
		h[HashSize-1-i] = b
	}
	return h
}

func TestStringRoundTrip(t *testing.T) {
	h := DoubleSHA256([]byte("round trip"))
	if parsed := unreverse(t, h.String()); parsed != h {
		t.Errorf("round trip mismatch: %s vs %s", parsed, h)
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

// Property: String is the reversed hex of arbitrary hashes.
func TestHashStringRoundTripProperty(t *testing.T) {
	f := func(raw [HashSize]byte) bool {
		h := Hash(raw)
		return unreverse(t, h.String()) == h
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
