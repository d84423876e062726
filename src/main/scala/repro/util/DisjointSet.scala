package repro.util

/** Disjoint-set (union-find) over `0 until n` with lazy membership.
  *
  * This is the `v2key` structure of Algorithm 3 (EnumIC): elements start
  * *unassigned* (`v2key(v) = null` in the paper); `assign(v, intoRoot)` makes
  * v a member of the set rooted at `intoRoot`. `unionInto(x, newRoot)`
  * implements the paper's `Union(w, u)` with a *forced* root: the set
  * containing x is attached under `newRoot`, so subsequent `find`s return
  * `newRoot` — this is how EnumIC re-labels a higher-weight community as part
  * of the currently processed (lower-weight) one.
  *
  * `find` uses path halving, giving the constant amortised cost Alg. 3 relies
  * on for its O(size(g)) bound.
  */
final class DisjointSet(n: Int) {
  /** parent(v) = -1 means unassigned; parent(root) == root. A primitive
    * fill: one set is built per query, and the generic `Array.fill` can be
    * compiled into a much slower form.
    */
  private val parent = new Array[Int](n)
  java.util.Arrays.fill(parent, -1)

  def assigned(v: Int): Boolean = parent(v) != -1

  /** Make `root` a singleton root if unassigned (idempotent). */
  def makeRoot(root: Int): Unit = if (parent(root) == -1) parent(root) = root

  /** Put unassigned `v` directly into the set rooted at `root`. */
  def assign(v: Int, root: Int): Unit = parent(v) = root

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
