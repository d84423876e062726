package repro.util

import org.scalatest.funsuite.AnyFunSuite

class IntArrayListSpec extends AnyFunSuite {

  test("starts empty") {
    val l = new IntArrayList()
    assert(l.length == 0 && l.isEmpty)
  }

  test("append and read back") {
    val l = new IntArrayList(2)
    (0 until 100).foreach(l.add)
    assert(l.length == 100)
    assert((0 until 100).forall(i => l(i) == i))
  }

  test("slice copies the requested range") {
    val l = new IntArrayList()
    (10 until 20).foreach(l.add)
    assert(l.slice(2, 5).toSeq == Seq(12, 13, 14))
  }

  test("toArray equals appended sequence (randomised)") {
    val rnd = new scala.util.Random(1)
    for (_ <- 0 until 50) {
      val xs = List.fill(rnd.nextInt(200))(rnd.nextInt())
      val l = new IntArrayList(1)
      xs.foreach(l.add)
      assert(l.toArray.toSeq == xs)
    }
  }

  test("clear keeps capacity and resets length") {
    val l = new IntArrayList()
    (0 until 10).foreach(l.add)
    l.clear()
    assert(l.isEmpty)
    l.add(42)
    assert(l.length == 1 && l(0) == 42)
  }
}

class IntQueueSpec extends AnyFunSuite {

  test("FIFO order") {
    val q = new IntQueue(5)
    Seq(3, 1, 4).foreach(q.push)
    assert(q.pop() == 3 && q.pop() == 1 && q.pop() == 4 && q.isEmpty)
  }

  test("clear resets") {
    val q = new IntQueue(3)
    q.push(1); q.clear()
    assert(q.isEmpty)
    q.push(2)
    assert(q.pop() == 2)
  }
}

class DisjointSetSpec extends AnyFunSuite {

  test("elements start unassigned") {
    val ds = new DisjointSet(4)
    assert((0 until 4).forall(!ds.assigned(_)))
  }

  test("makeRoot then find returns self") {
    val ds = new DisjointSet(4)
    ds.makeRoot(2)
    assert(ds.assigned(2) && ds.find(2) == 2)
  }

  test("assign groups elements under a root") {
    val ds = new DisjointSet(5)
    ds.makeRoot(0)
    ds.assign(1, 0); ds.assign(2, 0)
    assert(ds.find(1) == 0 && ds.find(2) == 0)
  }

  test("unionInto forces the new root (Alg. 3 Union semantics)") {
    val ds = new DisjointSet(6)
    ds.makeRoot(0); ds.assign(1, 0)
    ds.makeRoot(3); ds.assign(4, 3)
    ds.unionInto(1, 3)
    assert(ds.find(0) == 3 && ds.find(1) == 3 && ds.find(4) == 3)
  }

  test("unionInto on same set is a no-op") {
    val ds = new DisjointSet(3)
    ds.makeRoot(0); ds.assign(1, 0)
    ds.unionInto(1, 0)
    assert(ds.find(1) == 0)
  }

  test("long chains compress") {
    val n = 1000
    val ds = new DisjointSet(n)
    ds.makeRoot(0)
    (1 until n).foreach { i => ds.makeRoot(i); ds.unionInto(i - 1, i) }
    assert((0 until n).forall(ds.find(_) == n - 1))
  }

  test("grows past its initial capacity") {
    val ds = new DisjointSet(2)
    assert(!ds.assigned(1000))
    ds.makeRoot(1000); ds.assign(5, 1000)
    ds.makeRoot(3); ds.assign(1, 3)
    ds.unionInto(1, 1000)
    assert(ds.capacity > 1000)
    assert(Seq(1, 3, 5, 1000).forall(ds.find(_) == 1000))
    assert(Seq(0, 2, 999, 5000).forall(!ds.assigned(_)))
  }
}
