package repro.nexmark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

import repro.tvr.{Times, Tvr, WatermarkTimeline}

/** NEXMark-lite: a deterministic synthetic generator for the Bid stream
  * of the online-auction data model the paper evaluates on (its auction
  * and bidder ids range over the model's Auction and Person counts).
  *
  * Substitution note (DESIGN.md): the original NEXMark kit is
  * XMark-derived and not redistributable; this generator preserves the
  * properties the paper's examples exercise — event-timestamped bids
  * arriving *out of order* (arrival time = event time + random skew) at a
  * configurable scale factor. SF=1.0 ~ 1M bids; tests use SF=0.01 (10k),
  * benches SF=0.1 (100k). All columns are deterministic in (sf, seed).
  */
object NexGen {

  val BidsPerSf: Long     = 1_000_000L
  val AuctionsPerSf: Long =   100_000L
  val PersonsPerSf: Long  =    20_000L

  /** Default stream cadence: one bid per second of event time, so SF=0.1
    * spans ~28 hours ~ 167 ten-minute windows.
    */
  val DefaultGapMs: Long = 1000L

  private def n(base: Long, sf: Double): Long = math.max(1L, (base * sf).toLong)

  /** The bid stream. Columns: `bidtime` (event time), `price`, `item`,
    * `auction`, `bidder`, `ptime` (arrival/processing time =
    * bidtime + Exp(meanSkewMs) skew).
    */
  def bids(
      spark: SparkSession,
      sf: Double = 0.01,
      seed: Long = 7,
      startMs: Long = 0L,
      gapMs: Long = DefaultGapMs,
      meanSkewMs: Long = 2 * Times.MinuteMs,
  ): DataFrame = {
    val nAuc = n(AuctionsPerSf, sf)
    val nPer = n(PersonsPerSf, sf)
    val base = spark.range(n(BidsPerSf, sf)).select(
      col("id"),
      timestamp_millis(lit(startMs) + col("id") * gapMs)        as "bidtime",
      (rand(seed) * 10000 + 1).cast(LongType)                    as "price",
      (rand(seed + 1) * nAuc + 1).cast(LongType)                 as "auction",
      (rand(seed + 2) * nPer + 1).cast(LongType)                 as "bidder",
      // Exponential skew with the configured mean; 0 when mean is 0.
      (lit(meanSkewMs) * -log(lit(1.0) - rand(seed + 3))).cast(LongType) as "skew",
    )
    base.select(
      col("bidtime"),
      col("price"),
      concat(lit("I"), col("auction"))                           as "item",
      col("auction"),
      col("bidder"),
      timestamp_millis(unix_millis(col("bidtime")) + greatest(col("skew"), lit(0L))) as "ptime",
    )
  }

  /** Driver-side arrival log `(ptimeMs, bidtimeMs)` of a bid stream. */
  def arrivalLog(bidsDf: DataFrame): Seq[(Long, Long)] =
    bidsDf.select(unix_millis(col("ptime")), unix_millis(col("bidtime")))
      .collect().map(r => (r.getLong(0), r.getLong(1))).toSeq

  /** Perfect watermark for a recorded bid stream, ticking every
    * `tickEveryMs` of processing time.
    */
  def perfectWatermark(bidsDf: DataFrame, tickEveryMs: Long): WatermarkTimeline =
    WatermarkTimeline.perfect(arrivalLog(bidsDf), tickEveryMs)

  /** Heuristic watermark: trails processing time by a fixed `slackMs`
    * (the "sufficient slack" configuration of Section 3.2.2).
    */
  def slackWatermark(bidsDf: DataFrame, tickEveryMs: Long, slackMs: Long): WatermarkTimeline = {
    val log = arrivalLog(bidsDf)
    val lo  = log.map(_._1).min
    val hi  = log.map(_._1).max
    val ticks = Iterator.iterate(lo)(_ + tickEveryMs).takeWhile(_ <= hi + slackMs + tickEveryMs).toVector
    WatermarkTimeline(ticks.map(p => (p, p - slackMs)))
  }

  /** The bid stream wrapped as an event-timed TVR with the given
    * watermark.
    */
  def bidTvr(bidsDf: DataFrame, wm: WatermarkTimeline): Tvr =
    Tvr.appendOnly(bidsDf, "ptime").withWatermark("bidtime", wm)
}
