package repro.exp

import org.scalatest.funsuite.AnyFunSuite

class TimingSpec extends AnyFunSuite {

  test("a short body runs four times: a warm-up, then the median of three") {
    var calls = 0
    val (result, ms) = Timing.measure { calls += 1; calls }
    assert(calls == 4 && result == 4 && ms >= 0)
  }

  test("a body over 2 s runs once, and that run is the measurement") {
    var calls = 0
    val (_, ms) = Timing.measure { calls += 1; Thread.sleep(2100) }
    assert(calls == 1 && ms >= 2100)
  }
}
