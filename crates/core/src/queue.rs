//! Lexical token queues with per-block barrier events (paper §2.3.1/§2.3.3).
//!
//! Producer/consumer pairs communicate through a [`TokenQueue`]: the
//! producer (a Lexor task, or the Splitter routing tokens to a procedure
//! stream) pushes tokens; each time a fixed-size *block* fills, the block
//! is sealed, "indicating to the consumer that it now may begin to read
//! the tokens of that block". Consumers read through a [`StreamCursor`],
//! which implements the parser's [`ccm2_syntax::parser::TokenSource`] and
//! parks on the block's barrier event when it runs ahead of the producer.
//!
//! The protocol is block-granular end to end:
//!
//! * the producer stages the unsealed tail on its own and publishes each
//!   full block as one shared `Arc<[Token]>` under a single lock;
//! * a cursor keeps its own list of the sealed block handles it has
//!   picked up, so reading a sealed token is a slice index with no lock,
//!   and every consumer shares the same blocks (no per-consumer copies);
//! * a barrier event exists only for a block some consumer actually
//!   waited on; sealing a block nobody awaits signals nothing.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use parking_lot::Mutex;

use ccm2_sched::{EventClass, ExecEnv};
use ccm2_support::ids::EventId;
use ccm2_support::work::Work;
use ccm2_syntax::parser::TokenSource;
use ccm2_syntax::token::Token;

/// Tokens per block — the granularity of producer/consumer batching. The
/// paper does not give its block size; 64 keeps event traffic low while
/// letting consumers start promptly.
pub const BLOCK_SIZE: usize = 64;

struct QueueState {
    /// Sealed blocks in stream order. Every block holds [`BLOCK_SIZE`]
    /// tokens except the last one of a closed stream.
    blocks: Vec<Arc<[Token]>>,
    /// Number of tokens sealed (available to consumers without waiting).
    sealed: usize,
    closed: bool,
    /// Barrier events of the blocks consumers are waiting on, by block
    /// index; an entry is removed when its block seals.
    awaited: Vec<(usize, EventId)>,
}

/// A multi-consumer token queue (the Lexor output feeds both the Splitter
/// and the Importer, §3).
pub struct TokenQueue {
    env: Arc<dyn ExecEnv>,
    name: String,
    /// The unsealed tail. Only the producer pushes here; lock order is
    /// `tail` before `state`.
    tail: Mutex<Vec<Token>>,
    state: Mutex<QueueState>,
}

impl std::fmt::Debug for TokenQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tail = self.tail.lock();
        let st = self.state.lock();
        write!(
            f,
            "TokenQueue(sealed = {}, total = {}, closed = {})",
            st.sealed,
            st.sealed + tail.len(),
            st.closed
        )
    }
}

impl TokenQueue {
    /// Creates an empty open queue.
    pub fn new(env: Arc<dyn ExecEnv>) -> Arc<TokenQueue> {
        Self::named(env, "tokens")
    }

    /// Creates an empty open queue with a diagnostic name.
    pub fn named(env: Arc<dyn ExecEnv>, name: impl Into<String>) -> Arc<TokenQueue> {
        Arc::new(TokenQueue {
            env,
            name: name.into(),
            tail: Mutex::new(Vec::with_capacity(BLOCK_SIZE)),
            state: Mutex::new(QueueState {
                blocks: Vec::new(),
                sealed: 0,
                closed: false,
                awaited: Vec::new(),
            }),
        })
    }

    /// The barrier event a consumer waits on for `block`, created on the
    /// first wait.
    fn await_block(&self, st: &mut QueueState, block: usize) -> EventId {
        if let Some(&(_, ev)) = st.awaited.iter().find(|(b, _)| *b == block) {
            return ev;
        }
        let ev = self
            .env
            .new_event_named(EventClass::Barrier, &format!("{}/block#{block}", self.name));
        st.awaited.push((block, ev));
        ev
    }

    /// Appends one token; seals and publishes the block when it fills.
    pub fn push(&self, token: Token) {
        let mut tail = self.tail.lock();
        tail.push(token);
        if tail.len() < BLOCK_SIZE {
            return;
        }
        let block: Arc<[Token]> = Arc::from(tail.as_slice());
        tail.clear();
        let woken = {
            let mut st = self.state.lock();
            debug_assert!(!st.closed, "push into closed queue");
            let ix = st.blocks.len();
            st.blocks.push(block);
            st.sealed += BLOCK_SIZE;
            let at = st.awaited.iter().position(|&(b, _)| b == ix);
            at.map(|at| st.awaited.swap_remove(at).1)
        };
        drop(tail);
        if let Some(ev) = woken {
            self.env.signal(ev);
        }
    }

    /// Appends many tokens.
    pub fn extend(&self, tokens: impl IntoIterator<Item = Token>) {
        for t in tokens {
            self.push(t);
        }
    }

    /// Closes the stream: seals the partial tail as a short final block
    /// and wakes every waiting consumer — including those waiting on
    /// blocks that will never fill.
    pub fn close(&self) {
        let mut tail = self.tail.lock();
        let woken = {
            let mut st = self.state.lock();
            if !tail.is_empty() {
                st.sealed += tail.len();
                st.blocks.push(Arc::from(tail.as_slice()));
                tail.clear();
            }
            st.closed = true;
            std::mem::take(&mut st.awaited)
        };
        drop(tail);
        for (_, ev) in woken {
            self.env.signal(ev);
        }
    }

    /// Non-blocking read of token `i`: `Ok(Some)` if available,
    /// `Ok(None)` if the stream ended before `i`, `Err(event)` with the
    /// barrier event to wait on otherwise.
    pub fn try_get(&self, i: usize) -> Result<Option<Token>, EventId> {
        let mut st = self.state.lock();
        if i < st.sealed {
            return Ok(Some(st.blocks[i / BLOCK_SIZE][i % BLOCK_SIZE]));
        }
        if st.closed {
            return Ok(None);
        }
        Err(self.await_block(&mut st, i / BLOCK_SIZE))
    }

    /// Blocking read of token `i` (parks on the block's barrier event).
    pub fn get_blocking(&self, i: usize) -> Option<Token> {
        loop {
            match self.try_get(i) {
                Ok(t) => return t,
                Err(ev) => self.env.wait(ev),
            }
        }
    }

    /// Total tokens pushed so far.
    pub fn len(&self) -> usize {
        let tail = self.tail.lock();
        self.state.lock().sealed + tail.len()
    }

    /// Whether no tokens have been pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the producer has closed the stream.
    pub fn is_closed(&self) -> bool {
        self.state.lock().closed
    }
}

/// A read cursor over a [`TokenQueue`] that charges `work` per newly
/// consumed token — this is how parse/split/import work reaches the
/// virtual-time cost model.
///
/// The cursor belongs to one consumer task. It keeps the sealed blocks it
/// has seen, so only a read past them touches the queue's lock.
pub struct StreamCursor {
    queue: Arc<TokenQueue>,
    work: Work,
    /// Sealed blocks picked up from the queue so far.
    blocks: RefCell<Vec<Arc<[Token]>>>,
    /// Tokens in `blocks`.
    sealed: Cell<usize>,
    /// Whether `blocks` is the whole stream.
    closed: Cell<bool>,
    high_water: Cell<usize>,
}

impl std::fmt::Debug for StreamCursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StreamCursor(over {:?})", self.queue)
    }
}

impl StreamCursor {
    /// Creates a cursor charging `work` units per token first touched.
    pub fn new(queue: Arc<TokenQueue>, work: Work) -> StreamCursor {
        StreamCursor {
            queue,
            work,
            blocks: RefCell::new(Vec::new()),
            sealed: Cell::new(0),
            closed: Cell::new(false),
            high_water: Cell::new(0),
        }
    }

    /// Slow path of [`TokenSource::get`]: picks up newly sealed blocks,
    /// parking on the barrier event of token `i`'s block until it seals
    /// or the stream closes.
    fn fetch(&self, i: usize) -> Option<Token> {
        loop {
            let ev = {
                let mut st = self.queue.state.lock();
                let mut blocks = self.blocks.borrow_mut();
                let seen = blocks.len();
                blocks.extend_from_slice(&st.blocks[seen..]);
                self.sealed.set(st.sealed);
                self.closed.set(st.closed);
                if i < st.sealed {
                    return Some(blocks[i / BLOCK_SIZE][i % BLOCK_SIZE]);
                }
                if st.closed {
                    return None;
                }
                self.queue.await_block(&mut st, i / BLOCK_SIZE)
            };
            self.queue.env.wait(ev);
        }
    }
}

impl TokenSource for StreamCursor {
    fn get(&self, i: usize) -> Option<Token> {
        let t = if i < self.sealed.get() {
            Some(self.blocks.borrow()[i / BLOCK_SIZE][i % BLOCK_SIZE])
        } else if self.closed.get() {
            None
        } else {
            self.fetch(i)
        };
        let hw = self.high_water.get();
        if t.is_some() && i >= hw {
            self.high_water.set(i + 1);
            self.queue.env.charge(self.work, (i + 1 - hw) as u64);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccm2_sched::run_threaded;
    use ccm2_sched::task::{TaskDesc, TaskKind, WaitSet};
    use ccm2_support::source::{FileId, Span};
    use ccm2_syntax::token::TokenKind;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tok(i: u32) -> Token {
        Token::new(TokenKind::Int(i as i64), Span::new(i, i + 1), FileId(0))
    }

    #[test]
    fn producer_consumer_through_barriers() {
        let consumed = Arc::new(AtomicUsize::new(0));
        let n_tokens = 3 * BLOCK_SIZE + 7;
        run_threaded(2, |sup| {
            let env: Arc<dyn ExecEnv> = Arc::clone(sup) as Arc<dyn ExecEnv>;
            let q = TokenQueue::new(env);
            let q_prod = Arc::clone(&q);
            let mut producer = TaskDesc::new(
                "lexor",
                TaskKind::Lexor,
                Box::new(move || {
                    for i in 0..n_tokens {
                        q_prod.push(tok(i as u32));
                    }
                    q_prod.close();
                }),
            );
            producer.signals_barriers = true;
            sup.spawn(producer);
            let q_cons = Arc::clone(&q);
            let done = Arc::clone(&consumed);
            let mut consumer = TaskDesc::new(
                "parser",
                TaskKind::ModuleParse,
                Box::new(move || {
                    let mut i = 0;
                    while q_cons.get_blocking(i).is_some() {
                        i += 1;
                    }
                    done.store(i, Ordering::Relaxed);
                }),
            );
            consumer.may_wait = WaitSet {
                events: vec![],
                all_def_scopes: false,
                any_barrier: true,
            };
            sup.spawn(consumer);
        });
        assert_eq!(consumed.load(Ordering::Relaxed), n_tokens);
    }

    #[test]
    fn try_get_reports_waiting_event() {
        // Outside any scheduler: exercise the state machine directly with
        // a throwaway threaded env that we only use for event allocation.
        run_threaded(1, |sup| {
            let env: Arc<dyn ExecEnv> = Arc::clone(sup) as Arc<dyn ExecEnv>;
            let q = TokenQueue::new(env);
            assert!(q.try_get(0).is_err(), "nothing sealed yet");
            for i in 0..BLOCK_SIZE {
                q.push(tok(i as u32));
            }
            assert_eq!(
                q.try_get(0).expect("sealed").map(|t| t.kind),
                Some(TokenKind::Int(0))
            );
            assert!(q.try_get(BLOCK_SIZE).is_err(), "second block not sealed");
            q.push(tok(99));
            q.close();
            assert!(q.is_closed());
            assert_eq!(
                q.try_get(BLOCK_SIZE)
                    .expect("sealed by close")
                    .map(|t| t.kind),
                Some(TokenKind::Int(99))
            );
            assert_eq!(q.try_get(BLOCK_SIZE + 1), Ok(None), "past the end");
            assert_eq!(q.len(), BLOCK_SIZE + 1);
        });
    }

    #[test]
    fn cursor_charges_per_token() {
        let report = run_threaded(1, |sup| {
            let env: Arc<dyn ExecEnv> = Arc::clone(sup) as Arc<dyn ExecEnv>;
            let q = TokenQueue::new(env);
            for i in 0..10 {
                q.push(tok(i));
            }
            q.close();
            let q2 = Arc::clone(&q);
            sup.spawn(TaskDesc::new(
                "reader",
                TaskKind::ModuleParse,
                Box::new(move || {
                    let cursor = StreamCursor::new(q2, Work::Parse);
                    // Read some tokens twice: charges must count each
                    // token once.
                    for i in 0..10 {
                        let _ = cursor.get(i);
                        let _ = cursor.get(i / 2);
                    }
                }),
            ));
        });
        assert_eq!(report.charges[Work::Parse as usize], 10);
    }

    /// An environment outside any executor that records the events the
    /// queue creates and signals. Nothing may wait on it.
    #[derive(Default)]
    struct RecordingEnv {
        created: Mutex<Vec<String>>,
        signaled: Mutex<Vec<EventId>>,
    }

    impl ExecEnv for RecordingEnv {
        fn new_event(&self, class: EventClass) -> EventId {
            self.new_event_named(class, "")
        }
        fn new_event_named(&self, _class: EventClass, name: &str) -> EventId {
            let mut created = self.created.lock();
            created.push(name.to_string());
            EventId(created.len() as u32 - 1)
        }
        fn signal(&self, event: EventId) {
            self.signaled.lock().push(event);
        }
        fn is_signaled(&self, event: EventId) -> bool {
            self.signaled.lock().contains(&event)
        }
        fn wait_hinted(&self, event: EventId, _hint: Option<EventId>) {
            panic!("unexpected wait on {event:?}");
        }
        fn spawn(&self, task: TaskDesc) {
            panic!("unexpected spawn of {}", task.name);
        }
        fn charge(&self, _work: Work, _units: u64) {}
        fn virtual_now(&self) -> u64 {
            0
        }
    }

    fn kinds(tokens: &[Token]) -> Vec<TokenKind> {
        tokens.iter().map(|t| t.kind).collect()
    }

    fn read_all(cursor: &StreamCursor) -> Vec<Token> {
        let mut out = Vec::new();
        while let Some(t) = cursor.get(out.len()) {
            out.push(t);
        }
        out
    }

    #[test]
    fn two_cursors_read_identical_shared_tokens() {
        let n_tokens = 4 * BLOCK_SIZE + 9;
        // (tokens read, sealed block handles held) per consumer.
        type Read = (Vec<Token>, Vec<Arc<[Token]>>);
        let reads: Arc<Mutex<Vec<Read>>> = Arc::default();
        run_threaded(2, |sup| {
            let env: Arc<dyn ExecEnv> = Arc::clone(sup) as Arc<dyn ExecEnv>;
            let q = TokenQueue::new(env);
            let q_prod = Arc::clone(&q);
            let mut producer = TaskDesc::new(
                "lexor",
                TaskKind::Lexor,
                Box::new(move || {
                    for i in 0..n_tokens {
                        q_prod.push(tok(i as u32));
                    }
                    q_prod.close();
                }),
            );
            producer.signals_barriers = true;
            sup.spawn(producer);
            for c in 0..2 {
                let q = Arc::clone(&q);
                let reads = Arc::clone(&reads);
                let mut consumer = TaskDesc::new(
                    format!("consumer{c}"),
                    TaskKind::ModuleParse,
                    Box::new(move || {
                        let cursor = StreamCursor::new(q, Work::Parse);
                        let tokens = read_all(&cursor);
                        reads.lock().push((tokens, cursor.blocks.take()));
                    }),
                );
                consumer.may_wait.any_barrier = true;
                sup.spawn(consumer);
            }
        });
        let reads = reads.lock();
        let expected: Vec<TokenKind> = (0..n_tokens).map(|i| tok(i as u32).kind).collect();
        assert_eq!(kinds(&reads[0].0), expected);
        assert_eq!(kinds(&reads[1].0), expected);
        // Both cursors hold the very same sealed blocks: tokens are
        // shared, not copied per consumer.
        assert_eq!(reads[0].1.len(), 5);
        for (a, b) in reads[0].1.iter().zip(&reads[1].1) {
            assert!(Arc::ptr_eq(a, b), "block copied per consumer");
        }
    }

    #[test]
    fn close_releases_a_waiter_on_a_block_that_never_fills() {
        let n_tokens = BLOCK_SIZE + 5;
        let got = Arc::new(Mutex::new(Vec::new()));
        let got2 = Arc::clone(&got);
        let queue = Arc::new(Mutex::new(None));
        let queue2 = Arc::clone(&queue);
        run_threaded(2, move |sup| {
            let env: Arc<dyn ExecEnv> = Arc::clone(sup) as Arc<dyn ExecEnv>;
            let q = TokenQueue::new(env);
            *queue2.lock() = Some(Arc::clone(&q));
            let q_prod = Arc::clone(&q);
            let mut producer = TaskDesc::new(
                "lexor",
                TaskKind::Lexor,
                Box::new(move || {
                    for i in 0..n_tokens {
                        q_prod.push(tok(i as u32));
                    }
                    // Hold the short tail back until the consumer waits on
                    // block 1, which will never fill.
                    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
                    while !q_prod.state.lock().awaited.iter().any(|&(b, _)| b == 1) {
                        assert!(
                            std::time::Instant::now() < deadline,
                            "consumer never waited"
                        );
                        std::thread::yield_now();
                    }
                    q_prod.close();
                }),
            );
            producer.signals_barriers = true;
            sup.spawn(producer);
            let mut consumer = TaskDesc::new(
                "parser",
                TaskKind::ModuleParse,
                Box::new(move || {
                    let cursor = StreamCursor::new(q, Work::Parse);
                    *got2.lock() = read_all(&cursor);
                }),
            );
            consumer.may_wait.any_barrier = true;
            sup.spawn(consumer);
        });
        assert_eq!(got.lock().len(), n_tokens);
        let q = queue.lock().take().expect("queue");
        let st = q.state.lock();
        assert!(st.closed && st.awaited.is_empty());
        assert_eq!(st.blocks.len(), 2);
        assert_eq!(st.blocks[1].len(), 5, "close seals a short final block");
    }

    #[test]
    fn cursor_created_after_close_reads_the_whole_stream() {
        let env = Arc::new(RecordingEnv::default());
        let q = TokenQueue::new(Arc::clone(&env) as Arc<dyn ExecEnv>);
        let n_tokens = 2 * BLOCK_SIZE + 3;
        q.extend((0..n_tokens).map(|i| tok(i as u32)));
        q.close();
        let cursor = StreamCursor::new(Arc::clone(&q), Work::Parse);
        let all = read_all(&cursor);
        let expected: Vec<TokenKind> = (0..n_tokens).map(|i| tok(i as u32).kind).collect();
        assert_eq!(kinds(&all), expected);
        assert_eq!(cursor.get(n_tokens + 100), None, "past the end");
        assert!(env.created.lock().is_empty(), "no one ever waited");
    }

    #[test]
    fn unawaited_blocks_allocate_no_barrier_event() {
        let env = Arc::new(RecordingEnv::default());
        let q = TokenQueue::named(Arc::clone(&env) as Arc<dyn ExecEnv>, "q");
        q.extend((0..3 * BLOCK_SIZE as u32).map(tok));
        assert!(env.created.lock().is_empty(), "sealing allocates nothing");
        assert!(env.signaled.lock().is_empty(), "and signals nothing");
        // A reader running ahead asks for block 4: exactly one event,
        // signaled when that block seals and not before.
        let ev = q.try_get(4 * BLOCK_SIZE + 1).expect_err("block 4 unsealed");
        assert_eq!(q.try_get(4 * BLOCK_SIZE), Err(ev), "one event per block");
        assert_eq!(*env.created.lock(), vec!["q/block#4".to_string()]);
        q.extend((0..BLOCK_SIZE as u32).map(tok));
        assert!(env.signaled.lock().is_empty(), "block 3 was not awaited");
        q.extend((0..BLOCK_SIZE as u32).map(tok));
        assert_eq!(*env.signaled.lock(), vec![ev]);
        q.close();
        assert_eq!(*env.signaled.lock(), vec![ev], "close has no one to wake");
        assert_eq!(env.created.lock().len(), 1);
    }
}
