package wire

import "fmt"

// MaxBatchItems bounds one batch request: enough to amortize
// round-trips over a real sweep, small enough that a single request
// cannot enqueue more work than a whole queue's worth of singles.
const MaxBatchItems = 256

// BatchRequest is POST /v1/place:batch's body: N independent place
// requests decoded and validated in one round-trip. Items are
// submitted individually — each deduplicates against the result cache
// and coalesces onto in-flight identical work, so a batch of K
// identical problems costs one solve.
type BatchRequest struct {
	Items []Request `json:"items"`
}

// Validate checks batch-level invariants; per-item validation happens
// in DecodeBatchRequest.
func (b *BatchRequest) Validate() error {
	if len(b.Items) == 0 {
		return fmt.Errorf("wire: batch with no items")
	}
	if len(b.Items) > MaxBatchItems {
		return fmt.Errorf("wire: batch of %d items exceeds the limit of %d", len(b.Items), MaxBatchItems)
	}
	return nil
}

// DecodeBatchRequest strictly parses a batch, then validates and
// normalizes every item. One invalid item fails the whole batch with
// its index — all-or-nothing keeps partial-submission bookkeeping off
// the client.
func DecodeBatchRequest(data []byte) (*BatchRequest, error) {
	var b BatchRequest
	if err := decodeStrict(data, &b); err != nil {
		return nil, err
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	for i := range b.Items {
		if err := b.Items[i].Validate(); err != nil {
			return nil, fmt.Errorf("wire: batch item %d: %w", i, err)
		}
		b.Items[i].Problem.Normalize()
		b.Items[i].Options.Normalize()
	}
	return &b, nil
}

// DecodeBatchRequestHash is DecodeBatchRequest plus every item's
// content hash, with each item validated once: hashes[i] is what
// HashNormalized returns for Items[i], and what DecodeRequestHash
// returns for the item POSTed alone.
func DecodeBatchRequestHash(data []byte) (b *BatchRequest, hashes []string, err error) {
	b, err = DecodeBatchRequest(data)
	if err != nil {
		return nil, nil, err
	}
	hashes = make([]string, len(b.Items))
	for i := range b.Items {
		if hashes[i], err = b.Items[i].hashNormalized(); err != nil {
			return nil, nil, fmt.Errorf("wire: batch item %d: %w", i, err)
		}
	}
	return b, hashes, nil
}
