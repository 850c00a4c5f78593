package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/wire"
)

// ResultCache is the scheduler's content-addressed result cache:
// canonical wire hash → solved result. A Get never aliases a Put, so
// callers may mutate what they put or got: entries on a byte backend
// round-trip through JSON, and a memory-backed entry's decoded copy is
// cloned on the way in and on every hit. Get reports a corrupt entry
// as an error, after dropping it.
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
// is written with ttl (0 = no expiry). Over a *Memory the cache keeps
// each result decoded next to its bytes, so a hit costs a Clone, not
// a JSON decode; any other backend decodes on every Get.
func NewResultCache(s Store, ttl time.Duration) ResultCache {
	mem, _ := s.(*Memory)
	return &resultCache{s: s, mem: mem, ttl: ttl}
}

type resultCache struct {
	s   Store
	mem *Memory // s itself when it is a *Memory, else nil
	ttl time.Duration
}

func (c *resultCache) Put(hash string, res *wire.Result) error {
	if res == nil {
		return fmt.Errorf("store: nil result for %q", hash)
	}
	// Marshal even when the decoded form is kept: it rejects an
	// unencodable result, and the bytes keep Stats.Bytes exact.
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if c.mem != nil {
		return c.mem.putDecoded(hash, b, res.Clone(), c.ttl)
	}
	return c.s.Put(hash, b, c.ttl)
}

func (c *resultCache) Get(hash string) (*wire.Result, bool, error) {
	var b []byte
	var ok bool
	var err error
	if c.mem != nil {
		var dec any
		dec, b, ok = c.mem.getDecoded(hash)
		if res, isResult := dec.(*wire.Result); isResult {
			return res.Clone(), true, nil
		}
		// Otherwise the entry was written through the Store
		// interface: decode its bytes like any backend's.
	} else {
		b, ok, err = c.s.Get(hash)
	}
	if err != nil || !ok {
		return nil, false, err
	}
	var res wire.Result
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, false, dropCorrupt(c.s, hash, err)
	}
	return &res, true, nil
}

func (c *resultCache) Delete(hash string) error { return c.s.Delete(hash) }
func (c *resultCache) List() ([]string, error)  { return c.s.Keys() }
func (c *resultCache) Stats() (Stats, error)    { return c.s.Stats() }

// NewJobStore adapts a blob Store into a JobStore with one ttl for
// every record. Over a *Memory, records of one content hash whose
// results encode to equal bytes hold those bytes once, so the records
// of repeated cache hits cost only their metadata.
func NewJobStore(s Store, ttl time.Duration) JobStore {
	mem, _ := s.(*Memory)
	return &jobStore{s: s, mem: mem, ttl: ttl}
}

type jobStore struct {
	s   Store
	mem *Memory // s itself when it is a *Memory, else nil
	ttl time.Duration
}

// recordBufs recycles the buffers job records are encoded into.
var recordBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func (j *jobStore) Put(rec *JobRecord) error {
	if rec == nil || rec.ID == "" {
		return fmt.Errorf("store: job record without id")
	}
	buf := recordBufs.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		recordBufs.Put(buf)
	}()
	// Encode writes json.Marshal's bytes and a newline. No Store keeps
	// the value it is given, so the buffer is free again on return.
	if err := json.NewEncoder(buf).Encode(rec); err != nil {
		return err
	}
	b := bytes.TrimSuffix(buf.Bytes(), []byte{'\n'})
	if j.mem == nil || rec.Result == nil {
		return j.s.Put(rec.ID, b, j.ttl)
	}
	// The record without its result is the record's JSON with the
	// result's run cut out; the Memory shares that run by hash.
	meta := *rec
	meta.Result = nil
	base, err := json.Marshal(&meta)
	if err != nil {
		return err
	}
	return j.mem.putShared(rec.ID, b, base, rec.Hash, j.ttl)
}

func (j *jobStore) Get(id string) (*JobRecord, bool, error) {
	b, ok, err := j.s.Get(id)
	if err != nil || !ok {
		return nil, false, err
	}
	var rec JobRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, false, dropCorrupt(j.s, id, err)
	}
	return &rec, true, nil
}

func (j *jobStore) Delete(id string) error  { return j.s.Delete(id) }
func (j *jobStore) List() ([]string, error) { return j.s.Keys() }
func (j *jobStore) Stats() (Stats, error)   { return j.s.Stats() }

// dropCorrupt deletes an entry whose payload does not decode, so the
// key reads as a clean miss from then on instead of failing forever,
// and returns the decode error joined with any Delete error: the
// caller counts the corruption rather than mistaking it for a miss.
func dropCorrupt(s Store, key string, err error) error {
	return errors.Join(fmt.Errorf("store: corrupt entry %q dropped: %w", key, err), s.Delete(key))
}
