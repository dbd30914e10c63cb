package transport

import (
	"bufio"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"godcdo/internal/wire"
)

// errWriterClosed is returned by enqueue after the writer has been stopped
// or has died on a write error.
var errWriterClosed = errors.New("transport: connection writer closed")

// writeQueueDepth bounds every connection's outbound frame queue. Deep
// enough that a pipelining burst rarely blocks, shallow enough that a stalled
// peer cannot buffer unbounded memory.
const writeQueueDepth = 128

// combineYieldBudget caps how many times one combine yields the processor
// hoping to grow its batch. Each yield that nets new frames earns another
// (up to the budget); a yield that nets nothing flushes immediately. With an
// empty run queue a yield costs nanoseconds, so a latency-sensitive lone
// caller is unaffected.
const combineYieldBudget = 5

// outFrame is one encoded envelope queued for write-out. buf is pooled
// (wire.PutBuf-able); the writer owns and releases it once written or
// discarded. id, when non-zero, names the call awaiting a response so a
// frame that provably never reached the wire can be failed as safe-to-retry.
type outFrame struct {
	buf []byte
	id  uint64
}

// frameWriter coalesces outbound frames onto one connection without a
// dedicated goroutine. Enqueue places the frame on a bounded queue and then
// tries to become the combiner: the one goroutine holding mu, which drains
// the queue, writes every frame it finds, and flushes once per drain. A
// goroutine that loses the TryLock returns immediately — the active
// combiner's post-unlock recheck guarantees its frame is written, by that
// combiner or a successor.
//
// The shape matters on small machines. A lone caller combines a batch of
// one, which is byte-for-byte a plain synchronous write+flush — no
// goroutine handoff, no added latency. Under pipelining, whichever caller
// holds the lock writes everyone's frames and the flush syscall is amortised
// over the whole batch; the peers' read loops then receive many frames per
// read syscall for free. A dedicated writer goroutine gets neither property:
// it adds a scheduler wakeup per frame, and on a loaded single-core box it
// drains one frame at a time, flushing batches of one.
//
// Failure semantics: the first write or flush error kills the writer. Frames
// already handed to the buffered writer by then may have partially reached
// the kernel — their fate is ambiguous, and resolving them is left to the
// connection's death path (the read loop fails all still-pending calls).
// Frames still queued at death provably never reached the wire; each is
// reported through onNeverWritten so its caller can be failed safe-to-retry.
type frameWriter struct {
	bw *bufio.Writer
	ch chan outFrame
	mu sync.Mutex // held by the active combiner; guards bw

	stop     chan struct{} // closed by Stop: reject new frames, drain the rest
	stopOnce sync.Once
	dead     chan struct{} // closed on the first write error
	deadOnce sync.Once

	// onDead, when non-nil, runs once with the first write error, before any
	// onNeverWritten call. onNeverWritten, when non-nil, runs for every
	// frame with a non-zero id that was discarded without being written.
	// Both run on whichever goroutine is combining when the error surfaces.
	onDead         func(err error)
	onNeverWritten func(id uint64, err error)

	// flushes/frames are owner-provided batch counters (frames÷flushes is
	// the realised batch size).
	flushes *atomic.Uint64
	frames  *atomic.Uint64
}

// newFrameWriter builds a writer over bw with the given queue depth.
func newFrameWriter(bw *bufio.Writer, queue int, flushes, frames *atomic.Uint64,
	onDead func(error), onNeverWritten func(uint64, error)) *frameWriter {
	return &frameWriter{
		bw:             bw,
		ch:             make(chan outFrame, queue),
		stop:           make(chan struct{}),
		dead:           make(chan struct{}),
		onDead:         onDead,
		onNeverWritten: onNeverWritten,
		flushes:        flushes,
		frames:         frames,
	}
}

// Enqueue hands one frame to the writer, blocking while the queue is full,
// and then pumps: the caller either becomes the combiner and writes the
// batch itself, or observes an active combiner that is guaranteed to write
// the frame. On success the writer owns f.buf (a dead writer releases it and
// reports it through onNeverWritten). On error the caller keeps ownership
// and knows the frame never reached the wire.
func (w *frameWriter) Enqueue(f outFrame) error {
	// Fast-fail before blocking: a dead or stopped writer never drains.
	select {
	case <-w.dead:
		return errWriterClosed
	case <-w.stop:
		return errWriterClosed
	default:
	}
	select {
	case w.ch <- f:
	case <-w.dead:
		return errWriterClosed
	case <-w.stop:
		return errWriterClosed
	}
	w.pump()
	return nil
}

// pump makes this goroutine the combiner if no other goroutine already is.
// The post-unlock recheck closes the handoff race: a frame enqueued while we
// held the lock, whose owner then failed its own TryLock against us, must
// not strand — the channel length check happens after our unlock, so it sees
// any such frame and loops to claim it.
func (w *frameWriter) pump() {
	for {
		if !w.mu.TryLock() {
			// An active combiner exists. Our frame was enqueued before its
			// unlock, so its recheck (or a successor's) will see it.
			return
		}
		w.combine()
		w.mu.Unlock()
		if len(w.ch) == 0 {
			return
		}
	}
}

// combine drains the queue and flushes once. Must hold w.mu. After death it
// keeps draining, discarding each frame as never-written, so blocked
// enqueuers unstick and their calls fail safe instead of timing out.
//
// Before the flush, the combiner yields the processor once. This is what
// makes batches form when goroutines outnumber cores: runnable peers — a
// pipelined caller just woken by its previous response, a handler goroutine
// about to enqueue its reply — get to run up to their own enqueue, lose the
// TryLock to us, and land in the queue we are about to drain. Without the
// yield, a combiner on a saturated single-core box always finishes its
// write+flush before any peer runs, and every "batch" is one frame. With no
// other runnable goroutine the yield is a few nanoseconds, so a lone
// low-latency caller pays nothing.
func (w *frameWriter) combine() {
	wrote := 0
	yields := 0
	for {
		select {
		case f := <-w.ch:
			if w.isDead() {
				w.neverWritten(f)
				continue
			}
			err := wire.WriteFrameBuffered(w.bw, f.buf)
			wire.PutBuf(f.buf)
			if err != nil {
				w.died(err)
				continue
			}
			wrote++
		default:
			if wrote > 0 && yields < combineYieldBudget && !w.isDead() {
				yields++
				runtime.Gosched()
				if len(w.ch) > 0 {
					continue // the yield produced frames: grow the batch
				}
				// Nothing arrived; stop waiting and flush what we have.
			}
			if wrote > 0 && !w.isDead() {
				if err := w.bw.Flush(); err != nil {
					w.died(err)
					return
				}
				if w.flushes != nil {
					w.flushes.Add(1)
					w.frames.Add(uint64(wrote))
				}
			}
			return
		}
	}
}

// Stop rejects further frames, then drains and flushes whatever is queued
// (discarding it if the writer is dead). Idempotent and safe from multiple
// goroutines. Callers must first guarantee no Enqueue can race the stop (the
// transport stops the writer only after every handler/caller that might
// enqueue has finished or the connection is being torn down); an enqueue
// that does race sees errWriterClosed or, at worst, leaves its frame for
// the GC.
func (w *frameWriter) Stop() {
	w.stopOnce.Do(func() { close(w.stop) })
	for {
		w.mu.Lock()
		w.combine()
		w.mu.Unlock()
		if len(w.ch) == 0 {
			return
		}
	}
}

func (w *frameWriter) isDead() bool {
	select {
	case <-w.dead:
		return true
	default:
		return false
	}
}

// died marks the writer dead and notifies the owner exactly once. Runs with
// w.mu held, on the combining goroutine.
func (w *frameWriter) died(err error) {
	w.deadOnce.Do(func() {
		close(w.dead)
		if w.onDead != nil {
			w.onDead(err)
		}
	})
}

func (w *frameWriter) neverWritten(f outFrame) {
	wire.PutBuf(f.buf)
	if f.id != 0 && w.onNeverWritten != nil {
		w.onNeverWritten(f.id, errWriterClosed)
	}
}
