package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/chainhash"
)

// labelEvents builds one fixed relay trace twice: once the way the node
// emitted it before labels went binary — Detail holding the first 16 hex
// characters of the hash — and once with the 8-byte prefix in Obj.
func labelEvents() (asString, asPrefix []Event) {
	at := time.Unix(1585958400, 0).UTC()
	for i := 0; i < 40; i++ {
		h := chainhash.DoubleSHA256([]byte(fmt.Sprintf("object-%d", i/4)))
		from, to := addrPort(byte(1+i%5)), addrPort(byte(6+i%7))
		ev := Event{
			Time: at.Add(time.Duration(i) * 37 * time.Millisecond),
			Kind: KindDeliverTx, From: from, To: to,
			Span: SpanKey(to, h[:]), Parent: SpanKey(from, h[:]),
		}
		if i%3 == 0 {
			ev.Kind, ev.Span, ev.Dur = KindRelayBlock, 0, time.Duration(i)*time.Millisecond
		}
		s, p := ev, ev
		s.Detail = h.String()[:16]
		p.Obj = ObjectPrefix(h.Prefix())
		asString, asPrefix = append(asString, s), append(asPrefix, p)
	}
	return asString, asPrefix
}

// TestObjectLabelRendersAsHashPrefix: every export surface shows a
// prefix-carrying event exactly as it showed the pre-rendered label, so
// NDJSON traces recorded before labels went binary still compare equal.
func TestObjectLabelRendersAsHashPrefix(t *testing.T) {
	asString, asPrefix := labelEvents()

	var bufS, bufP bytes.Buffer
	ndS, ndP := NewNDJSONWriter(&bufS), NewNDJSONWriter(&bufP)
	trS, trP := NewTracer(8, nil), NewTracer(8, nil) // small ring: streams see evicted events too
	trS.AddStream(ndS.Sink())
	trP.AddStream(ndP.Sink())
	for i := range asString {
		if s, p := asString[i].String(), asPrefix[i].String(); s != p {
			t.Fatalf("event %d String:\n string form %q\n prefix form %q", i, s, p)
		}
		trS.Emit(asString[i])
		trP.Emit(asPrefix[i])
	}
	if err := ndS.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ndP.Close(); err != nil {
		t.Fatal(err)
	}
	if bufS.String() != bufP.String() {
		t.Errorf("NDJSON differs:\n string form %s\n prefix form %s", bufS.String(), bufP.String())
	}
}

// TestObjectIDText covers the text form flight records store.
func TestObjectIDText(t *testing.T) {
	h := chainhash.DoubleSHA256([]byte("round trip"))
	in := Event{Kind: KindDeliverBlock, Obj: ObjectPrefix(h.Prefix()), Detail: "x"}
	if got, want := in.DetailString(), h.String()[:16]+"x"; got != want {
		t.Errorf("DetailString = %q, want %q", got, want)
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Event
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
	if out.Obj != in.Obj || out.Obj.String() != h.String()[:16] {
		t.Errorf("round trip %s -> %q", data, out.Obj)
	}
	var zero Event
	data, _ = json.Marshal(Event{Kind: "drop"})
	if err := json.Unmarshal(data, &zero); err != nil || zero.Obj != (ObjectID{}) || zero.Obj.String() != "" {
		t.Errorf("zero object id: %s -> %+v (%v)", data, zero.Obj, err)
	}
	for _, bad := range []string{`"abc"`, `"zzzzzzzzzzzzzzzz"`, `"00112233445566778899"`} {
		var o ObjectID
		if err := json.Unmarshal([]byte(bad), &o); err == nil || o != (ObjectID{}) {
			t.Errorf("UnmarshalText(%s) = %+v, %v; want an error and the zero value", bad, o, err)
		}
	}
}
