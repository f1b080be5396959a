package serve

import (
	"errors"
	"net/http"

	"repro/internal/mutate"
	"repro/internal/wire"
)

// POST /mutate applies one batched graph mutation. The request body is a
// mutate.Batch:
//
//	{"seq": 1, "source": "ingest", "timestamp": "...", "ops":
//	  [{"op": "add", "s": "...", "r": "...", "o": "..."},
//	   {"op": "delete", ...}]}
//
// Batches apply atomically under the graph write lock and are appended to
// the mutation log (when configured) before any in-memory structure changes.
// Responses report what the batch net-changed and how many cache entries it
// invalidated; a sequence gap returns 409 with the expected sequence number
// so an out-of-sync client can resynchronize.
type mutateResponse struct {
	Seq     int64 `json:"seq"`
	Added   int   `json:"added"`
	Deleted int   `json:"deleted"`
	// DirtyRelations are the relations with a net triple change, by name.
	DirtyRelations []string `json:"dirty_relations"`
	// Invalidated counts response-cache entries dropped by this batch.
	Invalidated int `json:"invalidated"`
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if s.cfg.MaxMutationOps < 0 {
		wire.WriteError(w, http.StatusServiceUnavailable, "mutations are disabled on this server")
		return
	}
	var b mutate.Batch
	if !wire.Decode(w, r, s.cfg.MaxBodyBytes, &b) {
		return
	}
	if len(b.Ops) > s.cfg.MaxMutationOps {
		s.metrics.mutationRejected.Inc()
		wire.WriteError(w, http.StatusRequestEntityTooLarge,
			"batch has %d ops, limit is %d", len(b.Ops), s.cfg.MaxMutationOps)
		return
	}

	s.kgMu.Lock()
	ap, err := s.mut.Apply(b)
	var invalidated int
	if err == nil && ap.Effective() {
		// Invalidate under the same write-lock hold: readers acquiring the
		// lock after this batch can never see a pre-batch cache entry whose
		// relations the batch touched.
		invalidated = s.cache.InvalidateRelations(ap.NetRels)
	}
	s.kgMu.Unlock()

	if err != nil {
		s.metrics.mutationRejected.Inc()
		var gap *mutate.SequenceGapError
		var invalid *mutate.ValidationError
		switch {
		case errors.As(err, &gap):
			wire.WriteJSON(w, http.StatusConflict, map[string]any{
				"error":        err.Error(),
				"expected_seq": gap.Want,
			})
		case errors.As(err, &invalid), errors.Is(err, mutate.ErrEmptyBatch):
			wire.WriteError(w, http.StatusBadRequest, "%v", err)
		default:
			wire.WriteError(w, http.StatusInternalServerError, "mutation failed: %v", err)
		}
		return
	}

	s.metrics.mutationBatches.Inc()
	s.metrics.mutationAdds.Add(uint64(ap.Added))
	s.metrics.mutationDeletes.Add(uint64(ap.Deleted))
	s.metrics.cacheInvalidations.Add(uint64(invalidated))
	names := make([]string, len(ap.NetRels))
	for i, rid := range ap.NetRels {
		names[i] = s.ds.Train.Relations.Name(int32(rid))
	}
	wire.WriteJSON(w, http.StatusOK, mutateResponse{
		Seq:            ap.Seq,
		Added:          ap.Added,
		Deleted:        ap.Deleted,
		DirtyRelations: names,
		Invalidated:    invalidated,
	})
}

// MutationSeq returns the sequence number of the last applied batch; tests
// and the CLI use it to resynchronize.
func (s *Server) MutationSeq() int64 {
	s.kgMu.RLock()
	defer s.kgMu.RUnlock()
	return s.mut.Seq()
}
