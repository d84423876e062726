package repro.util

/** Disjoint-set (union-find) over the non-negative ints, with lazy membership.
  *
  * This is the `v2key` structure of Algorithm 3 (EnumIC): elements start
  * *unassigned* (`v2key(v) = null` in the paper); `assign(v, intoRoot)` makes
  * v a member of the set rooted at `intoRoot`. `unionInto(x, newRoot)`
  * implements the paper's `Union(w, u)` with a *forced* root: the set
  * containing x is attached under `newRoot`, so subsequent `find`s return
  * `newRoot` — this is how EnumIC re-labels a higher-weight community as part
  * of the currently processed (lower-weight) one.
  *
  * The parent array starts at `initialCapacity` and doubles whenever
  * `makeRoot` or `assign` reaches past it, so it is sized to the largest
  * element ever assigned, not to the universe: EnumIC over a prefix costs
  * O(prefix) however large the graph is. Every element past the array is
  * unassigned.
  *
  * `find` uses path halving, giving the constant amortised cost Alg. 3 relies
  * on for its O(size(g)) bound.
  */
final class DisjointSet(initialCapacity: Int = 16) {
  /** parent(v) = -1 means unassigned; parent(root) == root. */
  private var parent = new Array[Int](initialCapacity)
  java.util.Arrays.fill(parent, -1)

  /** Number of elements the parent array holds now. */
  def capacity: Int = parent.length

  private def ensure(v: Int): Unit = if (v >= parent.length) {
    val old = parent.length
    parent = java.util.Arrays.copyOf(parent, math.max(v + 1, 2 * old))
    java.util.Arrays.fill(parent, old, parent.length, -1)
  }

  def assigned(v: Int): Boolean = v < parent.length && parent(v) != -1

  /** Make `root` a singleton root if unassigned (idempotent). */
  def makeRoot(root: Int): Unit = {
    ensure(root)
    if (parent(root) == -1) parent(root) = root
  }

  /** Put unassigned `v` directly into the set rooted at `root`. */
  def assign(v: Int, root: Int): Unit = { ensure(v); parent(v) = root }

  /** Representative of v's set; v must be assigned. */
  def find(v: Int): Int = {
    var x = v
    while (parent(x) != x) {
      parent(x) = parent(parent(x)) // path halving
      x = parent(x)
    }
    x
  }

  /** Attach the set containing `x` under `newRoot` (which must be a root). */
  def unionInto(x: Int, newRoot: Int): Unit = {
    val r = find(x)
    if (r != newRoot) parent(r) = newRoot
  }
}
