package repro.core

import org.apache.spark.sql.{Column, PlanFrames}
import org.apache.spark.sql.catalyst.expressions.Expression
import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop}

import repro.{PropSupport, SparkSpec}
import repro.core.expressions.{EventTimePlus, HopWstarts, TumbleWend, TumbleWstart}
import repro.tvr.Times

class WindowExpressionsSpec extends SparkSpec with PropSupport {
  import spark.implicits._

  /** The expressions are built as columns over the column `t`. */
  private val t = PlanFrames.expression(col("t"))
  private def c(e: Expression): Column = PlanFrames.column(e)

  private def one(e: Expression, tsMs: Long): Long = {
    val df = Seq(Times.ts(tsMs)).toDF("t").select(c(e))
    Times.ms(df.head().getTimestamp(0))
  }

  test("tumble_wstart floors to the window start") {
    assert(one(TumbleWstart(t, 10 * Times.MinuteMs, 0L), Times.hm("8:07")) == Times.hm("8:00"))
    assert(one(TumbleWstart(t, 10 * Times.MinuteMs, 0L), Times.hm("8:10")) == Times.hm("8:10"))
  }

  test("tumble_wend is wstart + dur") {
    assert(one(TumbleWend(t, 10 * Times.MinuteMs, 0L), Times.hm("8:07")) == Times.hm("8:10"))
  }

  test("offset shifts the window grid") {
    val off = 3 * Times.MinuteMs
    assert(one(TumbleWstart(t, 10 * Times.MinuteMs, off), Times.hm("8:07")) == Times.hm("8:03"))
    assert(one(TumbleWstart(t, 10 * Times.MinuteMs, off), Times.hm("8:02")) == Times.hm("7:53"))
  }

  test("null timestamps propagate as null") {
    val df = Seq[Option[java.sql.Timestamp]](None).toDF("t")
      .select(c(TumbleWstart(t, 1000L, 0L)))
    assert(df.head().isNullAt(0))
  }

  test("hop_wstarts lists every covering window start, ascending") {
    val df = Seq(Times.ts(Times.hm("8:07"))).toDF("t")
      .select(c(HopWstarts(t, 10 * Times.MinuteMs, 5 * Times.MinuteMs, 0L)))
    val starts = df.head().getSeq[java.sql.Timestamp](0).map(Times.ms)
    assert(starts == Seq(Times.hm("8:00"), Times.hm("8:05")))
  }

  test("hop_wstarts with hop == dur degenerates to tumbling") {
    val df = Seq(Times.ts(Times.hm("8:07"))).toDF("t")
      .select(c(HopWstarts(t, 10 * Times.MinuteMs, 10 * Times.MinuteMs, 0L)))
    assert(df.head().getSeq[java.sql.Timestamp](0).map(Times.ms) == Seq(Times.hm("8:00")))
  }

  test("hop_wstarts with gaps (hop > dur) may cover zero windows") {
    // windows [0,1), [3,4), ... with hop 3, dur 1: t=2 is in a gap
    val df = Seq(Times.ts(2000L)).toDF("t")
      .select(c(HopWstarts(t, 1000L, 3000L, 0L)))
    assert(df.head().getSeq[java.sql.Timestamp](0).isEmpty)
  }

  test("event_time_plus adds milliseconds") {
    val df = Seq(Times.ts(Times.hm("8:00"))).toDF("t")
      .select(c(EventTimePlus(t, 10 * Times.MinuteMs)))
    assert(Times.ms(df.head().getTimestamp(0)) == Times.hm("8:10"))
  }

  test("window boundary: a timestamp at wend belongs to the next window") {
    val dur = 10 * Times.MinuteMs
    assert(one(TumbleWstart(t, dur, 0L), Times.hm("8:10")) == Times.hm("8:10"))
  }

  test("property: tumble window always contains its timestamp") {
    val gen = Gen.zip(Gen.choose(0L, 10 * Times.DayMs), Gen.choose(1L, Times.HourMs))
    checkProp(Prop.forAll(gen) { case (ts, dur) =>
      val ws = Math.floorDiv(ts * 1000, dur * 1000) * (dur * 1000) / 1000
      ws <= ts && ts < ws + dur
    })
  }

  test("property: every hop window covering ts contains ts (spark eval)") {
    val cases = Seq(
      (Times.hm("8:00"), 10L, 5L), (Times.hm("8:04"), 10L, 3L),
      (Times.hm("8:59"), 7L, 2L), (1234567L, 11L, 4L))
    for ((tsMs, durMin, hopMin) <- cases) {
      val dur = durMin * Times.MinuteMs; val hop = hopMin * Times.MinuteMs
      val starts = Seq(Times.ts(tsMs)).toDF("t")
        .select(c(HopWstarts(t, dur, hop, 0L)))
        .head().getSeq[java.sql.Timestamp](0).map(Times.ms)
      assert(starts.nonEmpty)
      starts.foreach { ws => assert(ws <= tsMs && tsMs < ws + dur, s"ts=$tsMs ws=$ws") }
      assert(starts == starts.sorted)
      // count matches ceil(dur/hop) or one fewer at grid edges
      assert(starts.size <= math.ceil(dur.toDouble / hop).toLong)
    }
  }

  test("functions compose with standard SQL (group by window start)") {
    val dur = 10 * Times.MinuteMs
    val df = Seq(
      (Times.ts(Times.hm("8:01")), 1), (Times.ts(Times.hm("8:02")), 2),
      (Times.ts(Times.hm("8:11")), 3))
      .toDF("t", "v")
      .select(c(TumbleWstart(t, dur, 0L)).as("ws"), $"v")
      .groupBy("ws").agg(sum($"v").as("s"))
      .orderBy("ws")
    assert(df.collect().map(_.getLong(1)).toSeq == Seq(3L, 3L))
  }
}
