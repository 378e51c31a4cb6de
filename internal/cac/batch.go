package cac

import "fmt"

// BatchController is implemented by controllers with a native batch
// decision path: DecideBatch answers many admission questions in one
// call, amortising per-request work (surface lookups, scratch buffers,
// station state reads) that Decide pays on every invocation.
//
// Contract: DecideBatch(reqs)[i] must equal Decide(reqs[i]) evaluated
// against the same controller and station state — batching changes the
// cost of a decision, never its outcome. Controllers must not mutate
// any station; like Decide, the caller allocates on Accept. A request
// that fails validation aborts the batch with its error.
type BatchController interface {
	Controller
	// DecideBatch returns one decision per request, in request order.
	DecideBatch(reqs []Request) ([]Decision, error)
}

// BatchIntoController is the allocation-free refinement of
// BatchController: DecideBatchInto writes decisions into a
// caller-provided buffer instead of allocating a fresh slice per batch.
// serve.Core — the decision step behind serve.Service, every shard of
// the sharded engine, the metropolis wave loop and the paper's
// single- and multi-cell simulators — reuses one buffer across millions
// of batches, so the steady-state decision path performs zero
// allocations.
//
// Contract: identical outcome semantics to DecideBatch — out[i] must
// equal Decide(reqs[i]) — and len(out) must be >= len(reqs) (only the
// first len(reqs) entries are written). Every BatchIntoController in
// this repository also implements BatchController by delegating to the
// Into path with a fresh buffer.
type BatchIntoController interface {
	Controller
	// DecideBatchInto writes one decision per request, in request
	// order, into out[:len(reqs)].
	DecideBatchInto(reqs []Request, out []Decision) error
}

// DecideOne renders a single decision through the batch pipeline using
// caller-provided scratch, so event-driven loops route through the same
// DecideAllInto dispatch as real batches without a per-decision
// allocation.
func DecideOne(c Controller, scratch *[1]Request, req Request) (Decision, error) {
	scratch[0] = req
	var out [1]Decision
	if err := DecideAllInto(c, scratch[:], out[:]); err != nil {
		return Reject, err
	}
	return out[0], nil
}

// DecideAll renders decisions for a batch of requests through c's
// native batch path when it implements BatchIntoController, and falls
// back to sequential Decide calls otherwise. It is the single entry
// point callers should use for multi-request admission when they do
// not manage an output buffer; hot loops should prefer DecideAllInto
// with reused scratch.
func DecideAll(c Controller, reqs []Request) ([]Decision, error) {
	out := make([]Decision, len(reqs))
	if err := DecideAllInto(c, reqs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DecideAllInto renders decisions for a batch of requests into the
// caller-provided buffer out, which must hold at least len(reqs)
// entries. Dispatch takes the allocation-free BatchIntoController path
// when c has one and sequential Decide calls otherwise — outcomes are
// identical either way. Every BatchController in this repository is
// also a BatchIntoController, so DecideBatch itself is never called
// here. Controllers with native Into support make the whole call
// allocation-free, which is what the steady-state zero-alloc gates on
// the metropolis wave loop pin.
//
//facs:hotpath
func DecideAllInto(c Controller, reqs []Request, out []Decision) error {
	if len(out) < len(reqs) {
		return errShortDecisionBuffer(len(reqs), len(out))
	}
	out = out[:len(reqs)]
	if bi, ok := c.(BatchIntoController); ok {
		return bi.DecideBatchInto(reqs, out)
	}
	for i := range reqs {
		d, err := c.Decide(reqs[i])
		if err != nil {
			return err
		}
		out[i] = d
	}
	return nil
}

// errShortDecisionBuffer formats the buffer-misuse error.
//
//facs:coldpath error constructor; called only on caller misuse
func errShortDecisionBuffer(reqs, slots int) error {
	return fmt.Errorf("cac: decision buffer too short: %d requests, %d slots", reqs, slots)
}
