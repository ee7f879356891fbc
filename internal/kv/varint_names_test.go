package kv

// Lowercase spellings of the exported varint codec for the package's
// white-box tests.
func appendUvarint(b []byte, v uint64) []byte { return AppendUvarint(b, v) }
func uvarint(b []byte) (uint64, int)          { return Uvarint(b) }
func uvarintLen(v uint64) int                 { return UvarintLen(v) }
