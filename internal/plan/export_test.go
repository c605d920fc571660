package plan

// SetKeyHashMask narrows the join-index key hashes (keyHashMask) so tests
// can force distinct keys into shared posting lists. It returns a func
// restoring the previous mask.
func SetKeyHashMask(m uint64) (restore func()) {
	old := keyHashMask
	keyHashMask = m
	return func() { keyHashMask = old }
}
