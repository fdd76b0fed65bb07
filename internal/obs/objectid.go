package obs

import (
	"encoding/hex"
	"fmt"
)

// ObjectID labels the block or transaction a trace event is about: the
// first 8 bytes of its hash in display order, i.e. the bytes behind the
// first 16 characters of the hash's hex string. It stays binary on the
// emit path — the relay hot path emits one per hop — and becomes text
// only at export (Event.String, NDJSON, PropagationTree views, flight
// records). The zero value means the event names no object.
type ObjectID struct {
	prefix [8]byte
	set    bool
}

// ObjectPrefix makes an ObjectID from a hash's 8-byte display prefix.
func ObjectPrefix(prefix [8]byte) ObjectID {
	return ObjectID{prefix: prefix, set: true}
}

// String renders the label as 16 hex characters ("" for the zero value).
func (o ObjectID) String() string {
	if !o.set {
		return ""
	}
	return hex.EncodeToString(o.prefix[:])
}

// MarshalText implements encoding.TextMarshaler with the String form.
func (o ObjectID) MarshalText() ([]byte, error) { return []byte(o.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler, inverting
// MarshalText.
func (o *ObjectID) UnmarshalText(text []byte) error {
	*o = ObjectID{}
	if len(text) == 0 {
		return nil
	}
	if len(text) != 2*len(o.prefix) {
		return fmt.Errorf("obs: object id %q is not 16 hex characters", text)
	}
	if _, err := hex.Decode(o.prefix[:], text); err != nil {
		*o = ObjectID{}
		return fmt.Errorf("obs: object id %q: %w", text, err)
	}
	o.set = true
	return nil
}
