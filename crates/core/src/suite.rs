//! The benchmark suite of the paper's Table 1 (§6).
//!
//! All 30 programs, transliterated into the surface language. Free variables
//! denote unknown integers, exactly as in the paper's prototype. The
//! `Expected` verdicts are the paper's: every program verifies (or, for the
//! `-e` bugs, is rejected with a real counterexample) except `apply`, on
//! which the paper's tool — and ours — diverges (Remark 2); we cap
//! iterations and report unknown.

/// The paper's expected outcome for a suite program.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Expected {
    /// Verified safe.
    Safe,
    /// Rejected with a genuine counterexample.
    Unsafe,
    /// The paper's tool does not terminate (`apply`, Remark 2). Our
    /// implementation ghost-captures in-scope integers (the paper's own
    /// suggested "dummy parameter" fix, applied systematically), so it may
    /// verify such programs; both `Safe` and `Unknown` are acceptable.
    Diverges,
}

/// One suite entry.
#[derive(Clone, Copy, Debug)]
pub struct SuiteProgram {
    /// The paper's program name (Table 1, column `program`).
    pub name: &'static str,
    /// Source text.
    pub source: &'static str,
    /// The paper's verdict.
    pub expected: Expected,
    /// The paper's CEGAR cycle count (column C; `usize::MAX` for `apply`).
    pub paper_cycles: usize,
    /// The order column O of *our transliteration* (equals the paper's
    /// column except for `neg` and `l-zipmap`, where the natural encodings
    /// in this surface syntax differ by one order).
    pub paper_order: usize,
}

/// All Table 1 programs, in the paper's order.
pub const SUITE: &[SuiteProgram] = &[
    SuiteProgram {
        name: "intro1",
        source: "let f x g = g (x + 1) in
                 let h y = assert (y > 0) in
                 let k n = if n > 0 then f n h else () in
                 k m",
        expected: Expected::Safe,
        paper_cycles: 1,
        paper_order: 2,
    },
    SuiteProgram {
        name: "intro2",
        source: "let f x g = g (x + 1) in
                 let h y = assert (y > 0) in
                 let k n = if n >= 0 then f n h else () in
                 k m",
        expected: Expected::Safe,
        paper_cycles: 1,
        paper_order: 2,
    },
    SuiteProgram {
        name: "intro3",
        source: "let f x g = g (x + 1) in
                 let h z y = assert (y > z) in
                 let k n = if n >= 0 then f n (h n) else () in
                 k m",
        expected: Expected::Safe,
        paper_cycles: 1,
        paper_order: 2,
    },
    SuiteProgram {
        name: "sum",
        source: "let rec sum n = if n <= 0 then 0 else n + sum (n - 1) in
                 assert (m <= sum m)",
        expected: Expected::Safe,
        paper_cycles: 2,
        paper_order: 1,
    },
    SuiteProgram {
        name: "mult",
        source: "let rec mult n k = if n <= 0 || k <= 0 then 0 else n + mult n (k - 1) in
                 assert (m <= mult m m)",
        expected: Expected::Safe,
        paper_cycles: 2,
        paper_order: 1,
    },
    SuiteProgram {
        name: "max",
        source: "let max max2 x y z = max2 (max2 x y) z in
                 let f x y = if x >= y then x else y in
                 let m = max f a b c in
                 assert (f a m = m)",
        expected: Expected::Safe,
        paper_cycles: 1,
        paper_order: 2,
    },
    SuiteProgram {
        name: "mc91",
        source: "let rec mc91 x = if x > 100 then x - 10 else mc91 (mc91 (x + 11)) in
                 if n <= 101 then assert (mc91 n = 91) else ()",
        expected: Expected::Safe,
        paper_cycles: 2,
        paper_order: 1,
    },
    SuiteProgram {
        name: "ack",
        source: "let rec ack m n =
                   if m = 0 then n + 1
                   else if n = 0 then ack (m - 1) 1
                   else ack (m - 1) (ack m (n - 1))
                 in
                 if a >= 0 && b >= 0 then assert (ack a b >= b) else ()",
        expected: Expected::Safe,
        paper_cycles: 3,
        paper_order: 1,
    },
    SuiteProgram {
        name: "repeat",
        source: "let succ x = x + 1 in
                 let rec repeat f n s = if n = 0 then s else f (repeat f (n - 1) s) in
                 assert (repeat succ n 0 = n)",
        expected: Expected::Safe,
        paper_cycles: 3,
        paper_order: 2,
    },
    SuiteProgram {
        name: "fhnhn",
        source: "let f x y = assert (not (x () > 0 && y () < 0)) in
                 let h z u = z in
                 let g n = f (h n) (h n) in
                 g m",
        expected: Expected::Safe,
        paper_cycles: 1,
        paper_order: 2,
    },
    SuiteProgram {
        name: "hrec",
        source: "let succ x = x + 1 in
                 let rec f g x = if x >= 0 then g x else f (f g) (g x) in
                 assert (f succ n >= 0)",
        expected: Expected::Safe,
        paper_cycles: 2,
        paper_order: 2,
    },
    SuiteProgram {
        name: "neg",
        source: "let g x u = x in
                 let twice f x y = f (f x) y in
                 let neg x u = -(x ()) in
                 if n >= 0 then assert (twice neg (g n) () >= 0) else ()",
        expected: Expected::Safe,
        paper_cycles: 1,
        paper_order: 3,
    },
    SuiteProgram {
        name: "apply",
        source: "let app f x = f x in
                 let g y z = assert (y = z) in
                 let rec k n = app (g n) n; k (n + 1) in
                 k 0",
        expected: Expected::Diverges,
        paper_cycles: usize::MAX,
        paper_order: 2,
    },
    SuiteProgram {
        name: "a-prod",
        source: "let mk_array n i = assert (0 <= i && i < n); 0 in
                 let rec dotprod n v1 v2 i acc =
                   if i >= n then acc
                   else dotprod n v1 v2 (i + 1) (acc + v1 i * v2 i)
                 in
                 let r = dotprod n (mk_array n) (mk_array n) 0 0 in
                 ()",
        expected: Expected::Safe,
        paper_cycles: 4,
        paper_order: 2,
    },
    SuiteProgram {
        name: "a-cppr",
        source: "let mk_array n i = assert (0 <= i && i < n); 0 in
                 let update i a x j = if i = j then x else a j in
                 let rec copy m a b i =
                   if i >= m then b
                   else copy m a (update i b (a i)) (i + 1)
                 in
                 let r = copy n (mk_array n) (mk_array n) 0 in
                 ()",
        expected: Expected::Safe,
        paper_cycles: 6,
        paper_order: 2,
    },
    SuiteProgram {
        name: "a-init",
        source: "let mk_array n i = assert (0 <= i && i < n); 0 in
                 let update i a x j = if i = j then x else a j in
                 let rec init i n a =
                   if i >= n then a
                   else init (i + 1) n (update i a 1)
                 in
                 let a = init 0 n (mk_array n) in
                 if 0 <= k && k < n then assert (a k >= 0) else ()",
        expected: Expected::Safe,
        paper_cycles: 5,
        paper_order: 2,
    },
    SuiteProgram {
        name: "a-max",
        source: "let mk n i = assert (0 <= i && i < n); n - i in
                 let rec max_elt n a i m =
                   if i >= n then m
                   else if a i > m then max_elt n a (i + 1) (a i)
                   else max_elt n a (i + 1) m
                 in
                 if n > 0 then assert (max_elt n (mk n) 1 (mk n 0) = n) else ()",
        expected: Expected::Safe,
        paper_cycles: 5,
        paper_order: 2,
    },
    SuiteProgram {
        name: "l-zipunzip",
        source: "let f g x y = g (x + 1) (y + 1) in
                 let rec zip x y =
                   if x = 0 then (if y = 0 then 0 else fail ())
                   else if y = 0 then fail ()
                   else 1 + zip (x - 1) (y - 1)
                 in
                 let rec unzip x k = if x = 0 then k 0 0 else unzip (x - 1) (f k) in
                 let r = unzip n zip in
                 ()",
        expected: Expected::Safe,
        paper_cycles: 3,
        paper_order: 2,
    },
    SuiteProgram {
        name: "l-zipmap",
        source: "let rec zip x y =
                   if x = 0 then (if y = 0 then x else fail ())
                   else if y = 0 then fail ()
                   else 1 + zip (x - 1) (y - 1)
                 in
                 let rec map x = if x = 0 then x else 1 + map (x - 1) in
                 if n >= 0 then assert (map (zip n n) = n) else ()",
        expected: Expected::Safe,
        paper_cycles: 4,
        paper_order: 1,
    },
    SuiteProgram {
        name: "hors",
        source: "let rec s n k = if n <= 0 then k 0 else s (n - 1) (fun r -> k (r + 1)) in
                 let check r = assert (r = n) in
                 if n >= 0 then s n check else ()",
        expected: Expected::Safe,
        paper_cycles: 2,
        paper_order: 2,
    },
    SuiteProgram {
        name: "e-simple",
        source: "let uncaught u = fail in
                 let handle u = () in
                 let f n k exn = if n >= 0 then k n else exn () in
                 let k v = assert (v >= 0) in
                 if n >= 0 then f n k uncaught else f n k handle",
        expected: Expected::Safe,
        paper_cycles: 1,
        paper_order: 2,
    },
    SuiteProgram {
        name: "e-fact",
        source: "let uncaught x = fail in
                 let rec fact n k exn =
                   if n < 0 then exn 0
                   else if n <= 1 then k 1
                   else fact (n - 1) k exn
                 in
                 let ret v = assert (v >= 1) in
                 if n >= 0 then fact n ret uncaught else ()",
        expected: Expected::Safe,
        paper_cycles: 2,
        paper_order: 2,
    },
    SuiteProgram {
        name: "r-lock",
        source: "let lock st = assert (st = 0); 1 in
                 let unlock st = assert (st = 1); 0 in
                 let rec loop n st = if n <= 0 then st else loop (n - 1) (unlock (lock st)) in
                 assert (loop n 0 = 0)",
        expected: Expected::Safe,
        paper_cycles: 5,
        paper_order: 1,
    },
    SuiteProgram {
        name: "r-file",
        source: "let fopen st = assert (st = 0); 1 in
                 let fread st = assert (st = 1); st in
                 let fclose st = assert (st = 1); 0 in
                 let rec reads n st = if n <= 0 then st else reads (n - 1) (fread st) in
                 let session n st = fclose (reads n (fopen st)) in
                 let rec sessions k n st = if k <= 0 then st else sessions (k - 1) n (session n st) in
                 assert (sessions k n 0 = 0)",
        expected: Expected::Safe,
        paper_cycles: 12,
        paper_order: 1,
    },
    SuiteProgram {
        name: "sum-e",
        source: "let rec sum n = if n <= 0 then 0 else n + sum (n - 1) in
                 assert (m < sum m)",
        expected: Expected::Unsafe,
        paper_cycles: 0,
        paper_order: 1,
    },
    SuiteProgram {
        name: "mult-e",
        source: "let rec mult n k = if n <= 0 || k <= 0 then 0 else n + mult n (k - 1) in
                 assert (m < mult m m)",
        expected: Expected::Unsafe,
        paper_cycles: 0,
        paper_order: 1,
    },
    SuiteProgram {
        name: "mc91-e",
        source: "let rec mc91 x = if x > 100 then x - 10 else mc91 (mc91 (x + 11)) in
                 if n <= 102 then assert (mc91 n = 91) else ()",
        expected: Expected::Unsafe,
        paper_cycles: 0,
        paper_order: 1,
    },
    SuiteProgram {
        name: "repeat-e",
        source: "let succ x = x + 1 in
                 let rec repeat f n s = if n = 0 then s else f (repeat f (n - 1) s) in
                 assert (repeat succ n 0 = n + 1)",
        expected: Expected::Unsafe,
        paper_cycles: 0,
        paper_order: 2,
    },
    SuiteProgram {
        name: "a-max-e",
        source: "let mk n i = assert (0 <= i && i < n); n - i in
                 let rec max_elt n a i m =
                   if i >= n then m
                   else if a i > m then max_elt n a (i + 1) (a i)
                   else max_elt n a (i + 1) m
                 in
                 if n > 0 then assert (max_elt n (mk n) 1 (mk n 0) = n + 1) else ()",
        expected: Expected::Unsafe,
        paper_cycles: 2,
        paper_order: 2,
    },
    SuiteProgram {
        name: "r-lock-e",
        source: "let lock st = assert (st = 0); 1 in
                 let unlock st = assert (st = 1); 0 in
                 let rec loop n st = if n <= 0 then st else loop (n - 1) (unlock (unlock (lock st))) in
                 assert (loop n 0 = 0)",
        expected: Expected::Unsafe,
        paper_cycles: 0,
        paper_order: 1,
    },
];

/// Looks up a suite program by name.
pub fn find(name: &str) -> Option<&'static SuiteProgram> {
    SUITE.iter().find(|p| p.name == name)
}
