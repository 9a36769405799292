package wire

// encodePayload is m's payload on its own, as the tests pin it.
func encodePayload(m Message) []byte { return appendPayload(nil, m) }
