package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.tvr.Times

class WindowTvfRewriterSpec extends AnyFunSuite {

  test("Tumble lowers to a projection with wstart/wend") {
    val r = WindowTvfRewriter.rewrite(
      "SELECT * FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), " +
        "dur => INTERVAL '10' MINUTE)")
    assert(r.contains("tumble_wstart(__src.bidtime, 600000L, 0L) AS wstart"))
    assert(r.contains("tumble_wend(__src.bidtime, 600000L, 0L) AS wend"))
    assert(r.contains("FROM Bid __src"))
    assert(!r.toLowerCase.contains("tumble("))
  }

  test("Tumble honors the optional offset") {
    val r = WindowTvfRewriter.rewrite(
      "SELECT * FROM Tumble(data => TABLE(T), timecol => DESCRIPTOR(ts), " +
        "dur => INTERVAL '1' HOUR, offset => INTERVAL '15' MINUTE)")
    assert(r.contains(s"tumble_wstart(__src.ts, ${Times.HourMs}L, ${15 * Times.MinuteMs}L)"))
    assert(r.contains(s"tumble_wend(__src.ts, ${Times.HourMs}L, ${15 * Times.MinuteMs}L)"))
  }

  test("Hop lowers to a LATERAL VIEW explode over hop_wstarts") {
    val r = WindowTvfRewriter.rewrite(
      "SELECT * FROM Hop(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), " +
        "dur => INTERVAL '10' MINUTE, hopsize => INTERVAL '5' MINUTE)")
    assert(r.contains("LATERAL VIEW explode(hop_wstarts(__src.bidtime, 600000L, 300000L, 0L))"))
    assert(r.contains("event_time_plus(__ws, 600000L) AS wend"))
    assert(r.contains("FROM Bid __src"))
  }

  test("Hop accepts 'slide' as an alias for hopsize") {
    val r = WindowTvfRewriter.rewrite(
      "SELECT * FROM Hop(data => TABLE(B), timecol => DESCRIPTOR(t), " +
        "dur => INTERVAL '4' MINUTE, slide => INTERVAL '2' MINUTE)")
    assert(r.contains(s"hop_wstarts(__src.t, ${4 * Times.MinuteMs}L, ${2 * Times.MinuteMs}L, 0L)"))
  }

  test("a following table alias is preserved") {
    val r = WindowTvfRewriter.rewrite(
      "SELECT TB.wend FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), " +
        "dur => INTERVAL '10' MINUTE) TB GROUP BY TB.wend")
    assert(r.matches("(?s).*\\) TB GROUP BY TB\\.wend.*"))
  }

  test("multiple TVF calls in one query are all lowered") {
    val r = WindowTvfRewriter.rewrite(
      "SELECT * FROM Tumble(data => TABLE(A), timecol => DESCRIPTOR(t), dur => INTERVAL '1' MINUTE) x, " +
        "Tumble(data => TABLE(B), timecol => DESCRIPTOR(u), dur => INTERVAL '2' MINUTE) y")
    assert("FROM (\\w+) __src".r.findAllMatchIn(r).map(_.group(1)).toSeq == Seq("A", "B"))
    assert(!r.toLowerCase.contains("tumble(data"))
  }

  test("argument order does not matter") {
    val r = WindowTvfRewriter.rewrite(
      "SELECT * FROM Tumble(dur => INTERVAL '10' MINUTE, data => TABLE(Bid), " +
        "timecol => DESCRIPTOR(bidtime))")
    assert(r.contains("tumble_wstart(__src.bidtime, 600000L, 0L)"))
    assert(r.contains("FROM Bid __src"))
  }

  test("SQL without TVF calls passes through untouched") {
    val sql = "SELECT a, tumbler FROM t WHERE hopper = 1"
    assert(WindowTvfRewriter.rewrite(sql) == sql)
  }

  test("a TVF name inside a string literal is not a call") {
    val sql = "SELECT 'Tumble(' AS s, price FROM Bid"
    assert(WindowTvfRewriter.rewrite(sql) == sql)
  }

  test("missing required arguments are reported") {
    intercept[IllegalArgumentException] {
      WindowTvfRewriter.rewrite("SELECT * FROM Tumble(data => TABLE(Bid))")
    }
    intercept[IllegalArgumentException] {
      WindowTvfRewriter.rewrite(
        "SELECT * FROM Hop(data => TABLE(B), timecol => DESCRIPTOR(t), dur => INTERVAL '4' MINUTE)")
    }
  }

  test("positional arguments are rejected with a clear error") {
    val e = intercept[IllegalArgumentException] {
      WindowTvfRewriter.rewrite("SELECT * FROM Tumble(TABLE(Bid), DESCRIPTOR(x), INTERVAL '1' MINUTE)")
    }
    assert(e.getMessage.contains("named"))
  }

  test("64 TVF calls rewrite in full; a 65th is a runaway") {
    def union(n: Int) = Seq.fill(n)(
      "SELECT * FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), dur => INTERVAL '1' MINUTE)")
      .mkString(" UNION ALL ")
    assert("FROM Bid __src".r.findAllMatchIn(WindowTvfRewriter.rewrite(union(64))).size == 64)
    val e = intercept[IllegalArgumentException](WindowTvfRewriter.rewrite(union(65)))
    assert(e.getMessage.contains("runaway"))
  }

  test("data must be a TABLE(...) reference") {
    intercept[IllegalArgumentException] {
      WindowTvfRewriter.rewrite(
        "SELECT * FROM Tumble(data => Bid, timecol => DESCRIPTOR(x), dur => INTERVAL '1' MINUTE)")
    }
  }
}
