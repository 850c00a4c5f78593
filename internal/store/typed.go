package store

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/wire"
)

// ResultCache is the scheduler's content-addressed result cache:
// canonical wire hash → solved result. Entries round-trip through
// JSON, so a Get never aliases a Put — callers may treat results as
// immutable or not, the cache does not care.
type ResultCache interface {
	Put(hash string, res *wire.Result) error
	Get(hash string) (*wire.Result, bool, error)
	Delete(hash string) error
	List() ([]string, error)
	Stats() (Stats, error)
}

// Progress is a job's annealing progress aggregated over its chains
// (service.Progress is this type); a JobRecord keeps the final one.
type Progress struct {
	BestCost    float64 `json:"best_cost"`     // lowest cost any chain has reported
	Stage       int     `json:"stage"`         // highest temperature stage any chain finished
	Temp        float64 `json:"temp"`          // temperature after that stage
	Moves       int     `json:"moves"`         // proposed moves across all chains and racers
	MovesPerSec float64 `json:"moves_per_sec"` // Moves over the job's running wall-clock
}

// JobRecord is the only form of a terminal job: everything the HTTP
// surface serves about a finished job — state, final progress, result
// (with its flight recording), error, fault history — without the
// live-only machinery (contexts, progress sources, channels).
type JobRecord struct {
	ID       string       `json:"id"`
	Hash     string       `json:"hash"`
	State    string       `json:"state"`
	CacheHit bool         `json:"cache_hit,omitempty"`
	Degraded bool         `json:"degraded,omitempty"`
	Error    string       `json:"error,omitempty"`
	Crashes  int          `json:"crashes,omitempty"`
	Faults   []string     `json:"faults,omitempty"`
	Progress *Progress    `json:"progress,omitempty"`
	Result   *wire.Result `json:"result,omitempty"`
	// SubmittedMS/FinishedMS are Unix milliseconds; wall-clock is fine
	// here — records are operational history, not solver output.
	SubmittedMS int64 `json:"submitted_ms,omitempty"`
	FinishedMS  int64 `json:"finished_ms,omitempty"`
}

// JobStore holds terminal JobRecords by job id. It is the scheduler's
// only home of finished jobs, and on a shared file store it answers
// for other instances' jobs too.
type JobStore interface {
	Put(rec *JobRecord) error
	Get(id string) (*JobRecord, bool, error)
	Delete(id string) error
	List() ([]string, error)
	Stats() (Stats, error)
}

// NewResultCache adapts a blob Store into a ResultCache; every entry
// is written with ttl (0 = no expiry).
func NewResultCache(s Store, ttl time.Duration) ResultCache {
	return &resultCache{s: s, ttl: ttl}
}

type resultCache struct {
	s   Store
	ttl time.Duration
}

func (c *resultCache) Put(hash string, res *wire.Result) error {
	if res == nil {
		return fmt.Errorf("store: nil result for %q", hash)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return c.s.Put(hash, b, c.ttl)
}

func (c *resultCache) Get(hash string) (*wire.Result, bool, error) {
	b, ok, err := c.s.Get(hash)
	if err != nil || !ok {
		return nil, false, err
	}
	var res wire.Result
	if err := json.Unmarshal(b, &res); err != nil {
		// A corrupt entry must read as a miss, not poison the hash
		// forever: drop it and re-solve.
		c.s.Delete(hash)
		return nil, false, nil
	}
	return &res, true, nil
}

func (c *resultCache) Delete(hash string) error { return c.s.Delete(hash) }
func (c *resultCache) List() ([]string, error)  { return c.s.Keys() }
func (c *resultCache) Stats() (Stats, error)    { return c.s.Stats() }

// NewJobStore adapts a blob Store into a JobStore with one ttl for
// every record.
func NewJobStore(s Store, ttl time.Duration) JobStore {
	return &jobStore{s: s, ttl: ttl}
}

type jobStore struct {
	s   Store
	ttl time.Duration
}

func (j *jobStore) Put(rec *JobRecord) error {
	if rec == nil || rec.ID == "" {
		return fmt.Errorf("store: job record without id")
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return j.s.Put(rec.ID, b, j.ttl)
}

func (j *jobStore) Get(id string) (*JobRecord, bool, error) {
	b, ok, err := j.s.Get(id)
	if err != nil || !ok {
		return nil, false, err
	}
	var rec JobRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		j.s.Delete(id)
		return nil, false, nil
	}
	return &rec, true, nil
}

func (j *jobStore) Delete(id string) error  { return j.s.Delete(id) }
func (j *jobStore) List() ([]string, error) { return j.s.Keys() }
func (j *jobStore) Stats() (Stats, error)   { return j.s.Stats() }
