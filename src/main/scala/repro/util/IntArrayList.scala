package repro.util

/** Growable primitive int buffer used on the peeling hot paths.
  *
  * `scala.collection.mutable.ArrayBuffer[Int]` boxes every element; the peel
  * loops of CountIC/CountICC append one entry per removed vertex/edge, so we
  * keep an unboxed buffer with amortised O(1) append.
  */
final class IntArrayList(initialCapacity: Int = 16) {
  private var arr = new Array[Int](math.max(1, initialCapacity))
  private var len = 0

  /** Number of elements appended so far. */
  def length: Int = len

  def isEmpty: Boolean = len == 0

  /** Element at position `i` (no bounds check beyond the JVM's). */
  def apply(i: Int): Int = arr(i)

  /** Append one element. */
  def add(x: Int): Unit = {
    if (len == arr.length) {
      val next = new Array[Int](arr.length << 1)
      System.arraycopy(arr, 0, next, 0, len)
      arr = next
    }
    arr(len) = x
    len += 1
  }

  /** Remove and return the last element (the buffer must be non-empty). */
  def pop(): Int = { len -= 1; arr(len) }

  /** Copy out `[from, until)` as a fresh array. */
  def slice(from: Int, until: Int): Array[Int] = {
    val out = new Array[Int](until - from)
    copyTo(from, until, out, 0)
    out
  }

  /** Copy `[from, until)` into `dst` starting at `at`. */
  def copyTo(from: Int, until: Int, dst: Array[Int], at: Int): Unit =
    System.arraycopy(arr, from, dst, at, until - from)

  /** Copy out the whole buffer as a fresh array. */
  def toArray: Array[Int] = slice(0, len)

  /** Reset to empty without releasing capacity. */
  def clear(): Unit = len = 0
}

/** Fixed-capacity int FIFO used by the cascading removal (Alg. 2 `Remove`).
  *
  * Every vertex/edge enters the queue at most once per peel, so capacity equal
  * to the universe size suffices and no wrap-around is needed.
  */
final class IntQueue(capacity: Int) {
  private val arr = new Array[Int](math.max(1, capacity))
  private var head = 0
  private var tail = 0

  def isEmpty: Boolean = head == tail
  def push(x: Int): Unit = { arr(tail) = x; tail += 1 }
  def pop(): Int = { val x = arr(head); head += 1; x }
  def clear(): Unit = { head = 0; tail = 0 }
}
