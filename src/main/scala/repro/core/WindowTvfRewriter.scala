package repro.core

/** Rewrites the paper's windowing table-valued functions (Extension 3)
  * into standard Spark SQL.
  *
  * The paper's surface syntax:
  * {{{
  *   Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime),
  *          dur => INTERVAL '10' MINUTE [, offset => INTERVAL '0' MINUTE])
  *   Hop(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime),
  *       dur => INTERVAL '10' MINUTE, hopsize => INTERVAL '5' MINUTE
  *       [, offset => ...])
  * }}}
  * becomes a derived table that keeps every column of `data` and appends
  * event-time interval columns `wstart`/`wend`, per the paper's column
  * convention. `Tumble` is a pure projection; `Hop` multiplies rows via
  * `LATERAL VIEW explode` over [[repro.core.expressions.HopWstarts]].
  *
  * Spark SQL cannot host user-defined polymorphic TVFs, so this textual
  * lowering is the documented substitution for the TVF extension point;
  * the window arithmetic itself is native Catalyst
  * ([[repro.core.expressions.WindowExpressions]]).
  */
object WindowTvfRewriter {

  private val CallStart = raw"(?i)\b(Tumble|Hop)\s*\(".r

  /** Lower every `Tumble(...)`/`Hop(...)` call in `sql`. */
  def rewrite(sql: String): String = {
    var text    = sql
    var guard   = 0
    var call    = findCall(text)
    while (call.isDefined && guard < 64) {
      val (start, kind, argsStart) = call.get // argsStart: just after '('
      val argsEnd = matchParen(text, argsStart - 1)
      val args    = parseArgs(text.substring(argsStart, argsEnd))
      text = text.substring(0, start) + lower(kind, args) + text.substring(argsEnd + 1)
      call = findCall(text)
      guard += 1
    }
    require(call.isEmpty, "runaway TVF rewrite")
    text
  }

  /** Indices of `s` from `from` on that lie outside '...' string
    * literals (the quotes themselves excluded).
    */
  private[core] def codeIndices(s: String, from: Int): Iterator[Int] = {
    var inString = false
    (from until s.length).iterator.filter { i =>
      val quote = s.charAt(i) == '\''
      val code  = !inString && !quote
      if (quote) inString = !inString
      code
    }
  }

  /** The first TVF call outside string literals: (start, kind, index
    * just after its '(').
    */
  private def findCall(s: String): Option[(Int, String, Int)] = {
    val m = CallStart.pattern.matcher(s).useTransparentBounds(true)
    codeIndices(s, 0).collectFirst {
      case i if m.region(i, s.length).lookingAt() => (i, m.group(1).toLowerCase, m.end)
    }
  }

  /** Index of the ')' closing the '(' at `open` (string-literal aware). */
  private def matchParen(s: String, open: Int): Int = {
    var depth = 0
    codeIndices(s, open).find { i =>
      s.charAt(i) match {
        case '(' => depth += 1; false
        case ')' => depth -= 1; depth == 0
        case _   => false
      }
    }.getOrElse(throw new IllegalArgumentException(s"unbalanced parentheses in TVF call: $s"))
  }

  /** Split `a => x, b => y` on top-level commas into a name->text map. */
  private def parseArgs(argText: String): Map[String, String] = {
    val parts = Vector.newBuilder[String]
    var depth = 0
    var start = 0
    codeIndices(argText, 0).foreach { i =>
      argText.charAt(i) match {
        case '(' => depth += 1
        case ')' => depth -= 1
        case ',' if depth == 0 =>
          parts += argText.substring(start, i); start = i + 1
        case _ => ()
      }
    }
    parts += argText.substring(start)
    parts.result().map(_.trim).filter(_.nonEmpty).map { p =>
      val arrow = p.indexOf("=>")
      require(arrow > 0, s"TVF arguments must be named (name => value): '$p'")
      (p.substring(0, arrow).trim.toLowerCase, p.substring(arrow + 2).trim)
    }.toMap
  }

  private val TableRe      = raw"(?is)^TABLE\s*\(\s*([A-Za-z_][\w.]*)\s*\)$$".r
  private val DescriptorRe = raw"(?is)^DESCRIPTOR\s*\(\s*([A-Za-z_][\w.]*)\s*\)$$".r

  private def tableArg(args: Map[String, String], fn: String): String =
    args.getOrElse("data", fail(fn, "data")) match {
      case TableRe(name) => name
      case other         => throw new IllegalArgumentException(s"$fn: data must be TABLE(name): '$other'")
    }

  private def timecolArg(args: Map[String, String], fn: String): String =
    args.getOrElse("timecol", fail(fn, "timecol")) match {
      case DescriptorRe(c) => c
      case other => throw new IllegalArgumentException(s"$fn: timecol must be DESCRIPTOR(col): '$other'")
    }

  private def fail(fn: String, arg: String): Nothing =
    throw new IllegalArgumentException(s"$fn: missing required argument '$arg'")

  private def lower(kind: String, args: Map[String, String]): String = {
    val table   = tableArg(args, kind)
    val timecol = timecolArg(args, kind)
    val dur     = EmitClause.intervalMs(args.getOrElse("dur", fail(kind, "dur")))
    val off     = args.get("offset").map(EmitClause.intervalMs).getOrElse(0L)
    kind match {
      case "tumble" =>
        s"""(SELECT __src.*,
           |  tumble_wstart(__src.$timecol, ${dur}L, ${off}L) AS wstart,
           |  tumble_wend(__src.$timecol, ${dur}L, ${off}L) AS wend
           | FROM $table __src)""".stripMargin.replace('\n', ' ')
      case "hop" =>
        val hop = args.get("hopsize").orElse(args.get("slide")).map(EmitClause.intervalMs)
          .getOrElse(fail("hop", "hopsize"))
        s"""(SELECT __src.*, __ws AS wstart,
           |  event_time_plus(__ws, ${dur}L) AS wend
           | FROM $table __src
           | LATERAL VIEW explode(hop_wstarts(__src.$timecol, ${dur}L, ${hop}L, ${off}L)) __h AS __ws)""".stripMargin
          .replace('\n', ' ')
    }
  }
}
