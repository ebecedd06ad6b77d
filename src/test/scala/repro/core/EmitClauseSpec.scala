package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.tvr.Times

class EmitClauseSpec extends AnyFunSuite {

  test("no EMIT clause means default table materialization") {
    val (base, spec) = EmitClause.split("SELECT * FROM t")
    assert(base == "SELECT * FROM t")
    assert(spec.isDefaultTable)
  }

  test("EMIT STREAM") {
    val (base, spec) = EmitClause.split("SELECT * FROM t EMIT STREAM")
    assert(base == "SELECT * FROM t")
    assert(spec == EmitSpec(stream = true))
  }

  test("EMIT AFTER WATERMARK") {
    val (_, spec) = EmitClause.split("SELECT * FROM t EMIT AFTER WATERMARK")
    assert(spec == EmitSpec(afterWatermark = true))
  }

  test("EMIT STREAM AFTER WATERMARK") {
    val (_, spec) = EmitClause.split("SELECT * FROM t EMIT STREAM AFTER WATERMARK")
    assert(spec == EmitSpec(stream = true, afterWatermark = true))
  }

  test("EMIT STREAM AFTER DELAY (Listing 14 syntax)") {
    val (_, spec) =
      EmitClause.split("SELECT * FROM t EMIT STREAM AFTER DELAY INTERVAL '6' MINUTES")
    assert(spec == EmitSpec(stream = true, delayMs = Some(6 * Times.MinuteMs)))
  }

  test("Extension 7: combined delay and watermark") {
    val (_, spec) = EmitClause.split(
      "SELECT * FROM t EMIT STREAM AFTER DELAY INTERVAL '2' MINUTE AND AFTER WATERMARK")
    assert(spec == EmitSpec(stream = true, afterWatermark = true, delayMs = Some(2 * Times.MinuteMs)))
  }

  test("EMIT is case-insensitive and tolerates trailing semicolon") {
    val (_, spec) = EmitClause.split("select 1 emit stream after watermark;")
    assert(spec == EmitSpec(stream = true, afterWatermark = true))
  }

  test("EMIT inside a string literal is not a clause") {
    val (base, spec) = EmitClause.split("SELECT 'EMIT STREAM' AS s FROM t")
    assert(spec.isDefaultTable)
    assert(base.contains("'EMIT STREAM'"))
  }

  test("EMIT inside parentheses (subquery) is not top-level") {
    val sql = "SELECT * FROM (SELECT emitter FROM t) x"
    val (base, spec) = EmitClause.split(sql)
    assert(spec.isDefaultTable)
    assert(base == sql)
  }

  test("column named emitter does not trigger the clause") {
    val (_, spec) = EmitClause.split("SELECT emitter FROM t")
    assert(spec.isDefaultTable)
  }

  test("columns named my_emit and emit_at do not trigger the clause") {
    for (c <- Seq("my_emit", "emit_at"))
      assert(EmitClause.split(s"SELECT $c FROM t")._2.isDefaultTable, c)
  }

  test("EMIT inside a comment is not a clause") {
    for (sql <- Seq("SELECT item /* EMIT STREAM */ FROM Bid", "SELECT item -- EMIT STREAM\nFROM Bid")) {
      val (base, spec) = EmitClause.split(sql)
      assert(spec.isDefaultTable)
      assert(base == sql)
    }
    val (_, spec) = EmitClause.split("SELECT item /* ( */ FROM Bid EMIT STREAM")
    assert(spec == EmitSpec(stream = true))
  }

  test("a parenthesis in double quotes, backquotes or an escaped literal is not code") {
    for (q <- Seq("\"(\"", "`(`", "'\\'('"))
      assert(EmitClause.split(s"SELECT $q AS s FROM t EMIT STREAM")._2 == EmitSpec(stream = true), q)
  }

  test("malformed modifier is rejected") {
    intercept[StreamSqlAnalysisException] {
      EmitClause.split("SELECT * FROM t EMIT SOMETIMES")
    }
    intercept[StreamSqlAnalysisException] {
      EmitClause.split("SELECT * FROM t EMIT AFTER DELAY INTERVAL '1' MONTH")
    }
  }

  test("a zero delay is accepted; a negative one is rejected") {
    val (_, spec) = EmitClause.split("SELECT * FROM t EMIT AFTER DELAY INTERVAL '0' MINUTES")
    assert(spec == EmitSpec(delayMs = Some(0L)))
    intercept[StreamSqlAnalysisException] {
      EmitClause.split("SELECT * FROM t EMIT AFTER DELAY INTERVAL '-1' MINUTE")
    }
  }

  test("interval parsing covers all units") {
    assert(EmitClause.intervalMs("INTERVAL '250' MILLISECOND") == 250L)
    assert(EmitClause.intervalMs("INTERVAL '10' SECONDS") == 10000L)
    assert(EmitClause.intervalMs("INTERVAL '6' MINUTES") == 6 * Times.MinuteMs)
    assert(EmitClause.intervalMs("INTERVAL '2' HOUR") == 2 * Times.HourMs)
    assert(EmitClause.intervalMs("INTERVAL '1' DAY") == Times.DayMs)
  }

  test("interval parsing rejects garbage") {
    intercept[StreamSqlAnalysisException](EmitClause.intervalMs("6 MINUTES"))
    intercept[StreamSqlAnalysisException](EmitClause.intervalMs("INTERVAL 'x' MINUTE"))
    intercept[StreamSqlAnalysisException](EmitClause.intervalMs("INTERVAL '1' MONTH"))
  }
}
