package wire

import (
	"bytes"
	"testing"
)

// TestWriteMessageShortWriter covers framing-layer write failures.
func TestWriteMessageShortWriter(t *testing.T) {
	msg := &MsgPing{Nonce: 3}
	var full bytes.Buffer
	if _, err := new(Encoder).WriteMessage(&full, msg, SimNet); err != nil {
		t.Fatal(err)
	}
	for limit := 0; limit < full.Len(); limit++ {
		if _, err := new(Encoder).WriteMessage(&limitWriter{limit: limit}, msg, SimNet); err == nil {
			t.Errorf("WriteMessage succeeded with writer capped at %d/%d", limit, full.Len())
		}
	}
}

// TestWriteMessageRejectsOversizedCommand guards the header invariant.
func TestWriteMessageRejectsOversizedCommand(t *testing.T) {
	bad := badCommandMsg{}
	if _, err := new(Encoder).WriteMessage(&bytes.Buffer{}, bad, SimNet); err == nil {
		t.Error("13-byte command accepted")
	}
}

type badCommandMsg struct{}

func (badCommandMsg) Command() string                        { return "thirteenchars" }
func (badCommandMsg) AppendPayload(b []byte) ([]byte, error) { return b, nil }
func (badCommandMsg) Decode(*bytes.Reader) error             { return nil }
