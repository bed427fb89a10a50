package pgrid

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// Wire encoding of overlay messages, used by real transports (netx):
// each payload is serialized self-contained — a fresh gob stream per
// message, so decoding never depends on connection state and a
// reconnect mid-stream cannot corrupt later messages. The simulated
// network passes payloads by reference and never touches this codec.
//
// Self-contained gob re-ships type descriptors on every message. That
// costs tens of bytes per frame — irrelevant next to loopback TCP
// latency, and a fair price for statelessness: frames can be decoded
// in isolation, which is also what makes the codec directly fuzzable.

// wirePayload wraps the payload so gob records its concrete type: all
// overlay message types are registered in init below (and application
// payload types by the packages that own them), so any registered
// value round-trips through the one Encode/Decode pair.
type wirePayload struct {
	P any
}

// wireTypes lists every overlay message payload type, one per message
// kind — the set the codec registers and the wire tests cover.
var wireTypes = []any{
	routeEnvelope{}, insertReq{}, lookupReq{}, multiLookupReq{}, rangeMsg{},
	pageReq{}, queryResp{}, ackMsg{}, gossipMsg{}, gossipAckMsg{},
	antiEntropyMsg{}, digestMsg{}, digestPullMsg{}, exchangeMsg{}, xferMsg{},
	appMsg{}, joinReq{}, joinAck{}, memberMsg{},
}

func init() {
	for _, t := range wireTypes {
		gob.Register(t)
	}
}

// WireCodec adapts the payload codec to the Codec interface real
// transports accept (netx.Codec) without netx importing this package.
type WireCodec struct{}

// Encode implements the transport codec via EncodePayload.
func (WireCodec) Encode(payload any) ([]byte, error) { return EncodePayload(payload) }

// Decode implements the transport codec via DecodePayload.
func (WireCodec) Decode(data []byte) (any, error) { return DecodePayload(data) }

// EncodePayload serializes one overlay message payload for the wire.
// The payload's concrete type must be gob-registered (all pgrid types
// are; application payloads register themselves).
func EncodePayload(payload any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wirePayload{P: payload}); err != nil {
		return nil, fmt.Errorf("pgrid: encode payload: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodePayload deserializes a payload produced by EncodePayload. Wire
// data is untrusted: malformed input yields an error, never a panic.
func DecodePayload(data []byte) (payload any, err error) {
	// gob's decoder is error-returning by design, but a hostile stream
	// that names a registered type with mismatched wire structure can
	// trip internal panics; a transport must treat that as a bad frame,
	// not die.
	defer func() {
		if r := recover(); r != nil {
			payload, err = nil, fmt.Errorf("pgrid: decode payload: panic: %v", r)
		}
	}()
	var w wirePayload
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return nil, fmt.Errorf("pgrid: decode payload: %w", err)
	}
	return w.P, nil
}
